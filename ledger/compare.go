package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one line of a result set: a benchmark result with the
// workload, seed and mode that produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path, workload string, seed int64, trace bool, r result) error {
	line, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: trace, Result: r})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// benchDef is the part of BENCHMARK.json compare needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// metricRule is how compare judges one end-to-end metric.
type metricRule struct {
	lowerBetter bool
	bound       float64
}

func loadRules(path string) (map[string]metricRule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := map[string]metricRule{}
	for _, m := range def.EndToEnd {
		rules[m.Name] = metricRule{lowerBetter: m.Better == "lower", bound: m.Bound}
	}
	return rules, nil
}

// compareFiles prints, for every workload × metric present on both sides,
// each side's median and quartiles and the change of the medians. An
// end-to-end metric worse by more than its bound is flagged WORSE; a side
// whose own quartile spread exceeds the bound makes it UNRESOLVED.
// Per-layer metrics have no bound and are only printed.
// It reports whether anything was flagged WORSE.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) (bool, error) {
	rules, err := loadRules(benchPath)
	if err != nil {
		return false, err
	}
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	type key struct {
		workload, metric string
		trace            bool
	}
	collect := func(recs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name, r.Trace}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	oldVals, newVals := collect(oldRecs), collect(newRecs)
	var keys []key
	for k := range oldVals {
		if _, ok := newVals[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "%-10s %-30s %4s %12s %12s %12s %4s %12s %12s %12s %8s  %s\n",
		"workload", "metric", "n", "old.q1", "old.med", "old.q3", "n", "new.q1", "new.med", "new.q3", "change", "verdict")
	worse := false
	for _, k := range keys {
		ov, nv := oldVals[k], newVals[k]
		om, nm := median(ov), median(nv)
		rule := rules[k.metric]
		change := 0.0
		if om != 0 {
			change = (nm - om) / om
		}
		verdict := ""
		if rule.bound > 0 {
			loss := change
			if !rule.lowerBetter {
				loss = -change
			}
			spread := func(v []float64, m float64) float64 {
				if m == 0 {
					return 0
				}
				return (quantile(v, 0.75) - quantile(v, 0.25)) / m
			}
			switch {
			case spread(ov, om) > rule.bound || spread(nv, nm) > rule.bound:
				verdict = "UNRESOLVED"
			case loss > rule.bound:
				verdict = "WORSE"
				worse = true
			case -loss > rule.bound:
				verdict = "better"
			}
		}
		fmt.Fprintf(w, "%-10s %-30s %4d %12.4g %12.4g %12.4g %4d %12.4g %12.4g %12.4g %+7.1f%%  %s\n",
			k.workload, k.metric, len(ov), quantile(ov, 0.25), om, quantile(ov, 0.75),
			len(nv), quantile(nv, 0.25), nm, quantile(nv, 0.75), change*100, verdict)
	}
	return worse, nil
}
