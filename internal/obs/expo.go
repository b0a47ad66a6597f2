// Prometheus-style text exposition. WriteFamily renders one metric
// family; the ode package composes the /metrics page from its series
// table with it (and odeshell's .metrics command reuses that).
package obs

import (
	"fmt"
	"io"
)

// Sample is one series of a family: the value of the family's label (""
// in an unlabeled family, which has one sample) and the series' value.
// The value's type is the family's kind: a uint64 is a counter, an int64
// a gauge, a HistSnapshot a histogram.
type Sample struct {
	Label string
	V     any
}

// WriteFamily renders one family in exposition format: its HELP and TYPE
// lines, then one series per sample — name{label="v"} value, or the bare
// name when label is "". A histogram series is its cumulative le buckets
// (the label, if any, before le), then _sum and _count; trailing empty
// buckets are elided (the +Inf bucket always closes the series), which
// keeps the page readable without changing its meaning. A family without
// samples renders nothing.
func WriteFamily(w io.Writer, name, help, label string, samples []Sample) error {
	if len(samples) == 0 {
		return nil
	}
	var kind string
	switch samples[0].V.(type) {
	case uint64:
		kind = "counter"
	case int64:
		kind = "gauge"
	case HistSnapshot:
		kind = "histogram"
	default:
		panic(fmt.Sprintf("obs: %s: a sample is a uint64, an int64 or a HistSnapshot, not %T", name, samples[0].V))
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind); err != nil {
		return err
	}
	for _, s := range samples {
		var own, first string // {label="v"} on its own, label="v", ahead of le
		if label != "" {
			own = fmt.Sprintf("{%s=%q}", label, s.Label)
			first = fmt.Sprintf("%s=%q,", label, s.Label)
		}
		var err error
		if h, ok := s.V.(HistSnapshot); ok {
			err = writeBuckets(w, name, own, first, h)
		} else {
			_, err = fmt.Fprintf(w, "%s%s %d\n", name, own, s.V)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeBuckets(w io.Writer, name, own, first string, s HistSnapshot) error {
	last := -1
	for i, n := range s.Counts {
		if n > 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last && i < NumBuckets-1; i++ {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", name, first, BucketUpper(i), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %d\n%s_count%s %d\n",
		name, first, s.Count, name, own, s.Sum, name, own, s.Count)
	return err
}
