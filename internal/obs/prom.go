package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind is a Prometheus metric family type.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name="value" pair. Labels render in the order given.
type Label struct {
	Key   string
	Value string
}

// Sample is one time series of a family: labels plus either a scalar value
// (counter/gauge) or a histogram snapshot.
type Sample struct {
	Labels []Label
	Value  float64
	Hist   HistSnapshot // used when the family's Kind is KindHistogram
}

// Family is one metric family in an exposition: a name, help text, a type,
// and its samples.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// ScalarFamily is shorthand for a single-sample, label-free counter/gauge.
func ScalarFamily(name, help string, kind Kind, v float64) Family {
	return Family{Name: name, Help: help, Kind: kind, Samples: []Sample{{Value: v}}}
}

// HistFamily is shorthand for a single-sample, label-free histogram family.
func HistFamily(name, help string, s HistSnapshot) Family {
	return Family{Name: name, Help: help, Kind: KindHistogram, Samples: []Sample{{Hist: s}}}
}

// ContentType is the HTTP Content-Type of the text exposition format this
// writer produces.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders the families in Prometheus text exposition format
// v0.0.4. Families render in the order given; within a histogram family the
// bucket lines are cumulative and always include the +Inf bucket, followed
// by _sum and _count, as the format requires.
func WriteText(w io.Writer, fams []Family) error {
	for _, f := range fams {
		if err := writeFamily(w, f); err != nil {
			return err
		}
	}
	return nil
}

func writeFamily(w io.Writer, f Family) error {
	if !validMetricName(f.Name) {
		return fmt.Errorf("obs: invalid metric name %q", f.Name)
	}
	if f.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
		return err
	}
	for _, s := range f.Samples {
		if err := writeSample(w, f, s); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(w io.Writer, f Family, s Sample) error {
	switch f.Kind {
	case KindHistogram:
		var cum uint64
		for i, c := range s.Hist.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Hist.Bounds) {
				le = formatFloat(s.Hist.Bounds[i])
			}
			labels := append(append([]Label(nil), s.Labels...), Label{"le", le})
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, renderLabels(labels), cum); err != nil {
				return err
			}
		}
		// A bucketless histogram still needs its +Inf line.
		if len(s.Hist.Counts) == 0 {
			labels := append(append([]Label(nil), s.Labels...), Label{"le", "+Inf"})
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, renderLabels(labels), s.Hist.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, renderLabels(s.Labels), formatFloat(s.Hist.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, renderLabels(s.Labels), s.Hist.Count)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, renderLabels(s.Labels), formatFloat(s.Value))
		return err
	}
}

// renderLabels renders {k="v",...}, or "" when there are no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf spelled out.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes backslash, double-quote and newline, the three
// characters the exposition format requires escaping inside label values.
func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if i == 0 && !alpha {
			return false
		}
		if i > 0 && !alpha && !(c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'
		if i == 0 && !alpha {
			return false
		}
		if i > 0 && !alpha && !(c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// SortSamples orders a family's samples by their rendered labels, giving the
// exposition a deterministic order regardless of map iteration upstream.
func SortSamples(f *Family) {
	sort.Slice(f.Samples, func(i, j int) bool {
		return renderLabels(f.Samples[i].Labels) < renderLabels(f.Samples[j].Labels)
	})
}
