package obs

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParsedSample is one parsed time series line.
type ParsedSample struct {
	// Name is the full metric name as written (including _bucket/_sum/
	// _count suffixes for histogram series).
	Name string
	// Labels holds the parsed label pairs in source order.
	Labels []Label
	// Value is the parsed sample value.
	Value float64
}

// ParsedFamily is one metric family reconstructed from an exposition.
type ParsedFamily struct {
	Name    string
	Type    string // counter, gauge, histogram, untyped, ...
	Help    string
	Samples []ParsedSample
}

// ParseText is a hand-rolled parser for the Prometheus text exposition
// format v0.0.4 — deliberately dependency-free, it exists so tests (and the
// CI smoke job) can verify that what /metrics serves is really scrapeable.
// It validates:
//
//   - metric and label names against the Prometheus grammar,
//   - label value escaping, sample values parsing as floats, and nothing
//     after a value but an optional integer timestamp,
//   - # TYPE appearing at most once per family, before its samples,
//   - histogram families carrying _bucket/_sum/_count series, with
//     cumulative non-decreasing bucket counts, an le="+Inf" bucket, and
//     +Inf bucket == _count for every label set.
//
// It returns the families in source order.
func ParseText(text string) ([]ParsedFamily, error) {
	var (
		fams  []ParsedFamily
		index = map[string]int{} // family name -> fams index
		typed = map[string]bool{}
	)
	family := func(name string) *ParsedFamily {
		if i, ok := index[name]; ok {
			return &fams[i]
		}
		index[name] = len(fams)
		fams = append(fams, ParsedFamily{Name: name, Type: "untyped"})
		return &fams[len(fams)-1]
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "#") {
			if err := parseComment(trimmed, family, typed); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSampleLine(trimmed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		base := baseName(s.Name, fams, index)
		f := family(base)
		if f.Type == "histogram" && len(f.Samples) == 0 && !typed[base] {
			return nil, fmt.Errorf("line %d: histogram %s has samples before # TYPE", lineNo, base)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range fams {
		if fams[i].Type == "histogram" {
			if err := validateHistogram(&fams[i]); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

func parseComment(line string, family func(string) *ParsedFamily, typed map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q in TYPE", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		f := family(name)
		if typed[name] {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if len(f.Samples) > 0 {
			return fmt.Errorf("TYPE for %s appears after its samples", name)
		}
		typed[name] = true
		f.Type = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		name := fields[2]
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q in HELP", name)
		}
		f := family(name)
		if len(fields) == 4 {
			f.Help = fields[3]
		}
	}
	return nil
}

// baseName maps a sample name to its family: histogram series drop their
// _bucket/_sum/_count suffix when the prefix names a declared histogram.
func baseName(name string, fams []ParsedFamily, index map[string]int) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suf)
		if !found {
			continue
		}
		if i, ok := index[base]; ok && fams[i].Type == "histogram" {
			return base
		}
	}
	return name
}

func parseSampleLine(line string) (ParsedSample, error) {
	var s ParsedSample
	rest := line
	// Metric name runs to the first '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		close := strings.Index(rest, "}")
		if close < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:close])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[close+1:]
	}
	// A sample ends at its value or its integer timestamp: v0.0.4 has no
	// exemplars, so an OpenMetrics ` # {labels} value` tail is an error.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q has %d value fields", line, len(fields))
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %q: timestamp %q is not an integer", line, fields[1])
		}
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string) ([]Label, error) {
	var labels []Label
	i := 0
	for i < len(body) {
		// label name
		j := i
		for j < len(body) && body[j] != '=' {
			j++
		}
		if j == len(body) {
			return nil, fmt.Errorf("label %q missing '='", body[i:])
		}
		name := strings.TrimSpace(body[i:j])
		if !validLabelName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		j++ // consume '='
		if j >= len(body) || body[j] != '"' {
			return nil, fmt.Errorf("label %s value not quoted", name)
		}
		j++ // consume opening quote
		var val strings.Builder
		for j < len(body) {
			c := body[j]
			if c == '\\' {
				if j+1 >= len(body) {
					return nil, fmt.Errorf("label %s: trailing backslash", name)
				}
				switch body[j+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: bad escape \\%c", name, body[j+1])
				}
				j += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			j++
		}
		if j >= len(body) {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		j++ // consume closing quote
		labels = append(labels, Label{Key: name, Value: val.String()})
		if j < len(body) {
			if body[j] != ',' {
				return nil, fmt.Errorf("unexpected %q after label %s", body[j], name)
			}
			j++
		}
		i = j
	}
	return labels, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateHistogram enforces the histogram invariants per label set: buckets
// cumulative and non-decreasing in `le` order, an le="+Inf" bucket present,
// and its value equal to the _count series.
func validateHistogram(f *ParsedFamily) error {
	type series struct {
		les     []float64
		buckets []float64
		count   *float64
		sum     bool
	}
	bySet := map[string]*series{}
	get := func(key string) *series {
		s, ok := bySet[key]
		if !ok {
			s = &series{}
			bySet[key] = s
		}
		return s
	}
	for _, s := range f.Samples {
		var le string
		var others []Label
		for _, l := range s.Labels {
			if l.Key == "le" {
				le = l.Value
			} else {
				others = append(others, l)
			}
		}
		key := renderLabels(others)
		switch s.Name {
		case f.Name + "_bucket":
			if le == "" {
				return fmt.Errorf("%s_bucket%s has no le label", f.Name, key)
			}
			lv, err := parseValue(le)
			if err != nil {
				return fmt.Errorf("%s_bucket: bad le %q", f.Name, le)
			}
			sr := get(key)
			sr.les = append(sr.les, lv)
			sr.buckets = append(sr.buckets, s.Value)
		case f.Name + "_sum":
			get(key).sum = true
		case f.Name + "_count":
			v := s.Value
			get(key).count = &v
		default:
			return fmt.Errorf("histogram %s has stray series %s", f.Name, s.Name)
		}
	}
	for key, sr := range bySet {
		if len(sr.les) == 0 {
			return fmt.Errorf("histogram %s%s has no buckets", f.Name, key)
		}
		for i := 1; i < len(sr.les); i++ {
			if sr.les[i] <= sr.les[i-1] {
				return fmt.Errorf("histogram %s%s: le values not ascending", f.Name, key)
			}
			if sr.buckets[i] < sr.buckets[i-1] {
				return fmt.Errorf("histogram %s%s: bucket counts not cumulative", f.Name, key)
			}
		}
		last := len(sr.les) - 1
		if !math.IsInf(sr.les[last], 1) {
			return fmt.Errorf("histogram %s%s missing le=\"+Inf\" bucket", f.Name, key)
		}
		if sr.count == nil {
			return fmt.Errorf("histogram %s%s missing _count", f.Name, key)
		}
		if !sr.sum {
			return fmt.Errorf("histogram %s%s missing _sum", f.Name, key)
		}
		if *sr.count != sr.buckets[last] {
			return fmt.Errorf("histogram %s%s: +Inf bucket %g != count %g", f.Name, key, sr.buckets[last], *sr.count)
		}
	}
	return nil
}
