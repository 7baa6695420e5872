# notes.awk prints the Figure.Notes lines of acbench's table output, one
# per line and without their "# " prefix:
#
#	go run ./cmd/acbench | awk -f internal/bench/testdata/notes.awk
#
# Every figure opens with two "# " lines (its title and its y-label) and
# is followed by a blank line; the other "# " lines are its notes. The
# wall-clock "generated in" line is dropped.
/^$/ { h = 0; next }
/^# / { h++; if (h > 2 && !/^# generated in /) print substr($0, 3) }
