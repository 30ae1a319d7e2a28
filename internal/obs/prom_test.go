package obs

import (
	"math"
	"strings"
	"testing"
)

// TestWriteTextGolden pins the exact exposition bytes for a small mixed
// family set — the wire format is a contract with real Prometheus scrapers,
// so it is asserted byte-for-byte.
func TestWriteTextGolden(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)
	fams := []Family{
		ScalarFamily("ocsd_requests_total", "Requests served.", KindCounter, 42),
		ScalarFamily("ocsd_goroutines", "Live goroutines.", KindGauge, 7),
		{
			Name: "ocsd_spmv_by_format_total",
			Help: "SpMV calls per format.",
			Kind: KindCounter,
			Samples: []Sample{
				{Labels: []Label{{"format", "CSR"}}, Value: 10},
				{Labels: []Label{{"format", "DIA"}}, Value: 3},
			},
		},
		HistFamily("ocsd_spmv_seconds", "SpMV latency.", h.Snapshot()),
	}
	var b strings.Builder
	if err := WriteText(&b, fams); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ocsd_requests_total Requests served.
# TYPE ocsd_requests_total counter
ocsd_requests_total 42
# HELP ocsd_goroutines Live goroutines.
# TYPE ocsd_goroutines gauge
ocsd_goroutines 7
# HELP ocsd_spmv_by_format_total SpMV calls per format.
# TYPE ocsd_spmv_by_format_total counter
ocsd_spmv_by_format_total{format="CSR"} 10
ocsd_spmv_by_format_total{format="DIA"} 3
# HELP ocsd_spmv_seconds SpMV latency.
# TYPE ocsd_spmv_seconds histogram
ocsd_spmv_seconds_bucket{le="0.001"} 1
ocsd_spmv_seconds_bucket{le="0.01"} 2
ocsd_spmv_seconds_bucket{le="+Inf"} 3
ocsd_spmv_seconds_sum 5.0055
ocsd_spmv_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteTextRoundTrip feeds the writer's output to the package's own
// parser and checks the reconstruction, including histogram invariants and
// label-value escaping.
func TestWriteTextRoundTrip(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 1e-4)
	}
	fams := []Family{
		ScalarFamily("a_total", "counts \\ backslash and\nnewline", KindCounter, 5),
		{
			Name: "b_info",
			Kind: KindGauge,
			Samples: []Sample{
				{Labels: []Label{{"path", `C:\x`}, {"msg", "a\"b\nc"}}, Value: 1},
			},
		},
		HistFamily("c_seconds", "latency", h.Snapshot()),
	}
	var b strings.Builder
	if err := WriteText(&b, fams); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(b.String())
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, b.String())
	}
	if len(parsed) != 3 {
		t.Fatalf("parsed %d families, want 3", len(parsed))
	}
	if parsed[0].Type != "counter" || parsed[0].Samples[0].Value != 5 {
		t.Errorf("family a_total = %+v", parsed[0])
	}
	gauge := parsed[1]
	if gauge.Type != "gauge" || len(gauge.Samples) != 1 {
		t.Fatalf("family b_info = %+v", gauge)
	}
	labels := gauge.Samples[0].Labels
	if labels[0].Value != `C:\x` || labels[1].Value != "a\"b\nc" {
		t.Errorf("escaped labels did not round-trip: %+v", labels)
	}
	hist := parsed[2]
	if hist.Type != "histogram" {
		t.Fatalf("family c_seconds type %q", hist.Type)
	}
	// _bucket + _sum + _count series: bucket count is bounds+1 (+Inf).
	if want := DefaultBucketCount + 1 + 2; len(hist.Samples) != want {
		t.Errorf("histogram has %d series, want %d", len(hist.Samples), want)
	}
}

func TestWriteTextRejectsBadName(t *testing.T) {
	var b strings.Builder
	err := WriteText(&b, []Family{ScalarFamily("0bad", "", KindCounter, 1)})
	if err == nil {
		t.Error("metric name starting with a digit accepted")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:             "1",
		0.001:         "0.001",
		math.Inf(1):   "+Inf",
		math.Inf(-1):  "-Inf",
		1.5e-7:        "1.5e-07",
		12345678.9012: "1.23456789012e+07",
		0:             "0",
		-2.25:         "-2.25",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestParseTextRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"bad metric name": "0bad 1\n",
		"no value":        "lonely\n",
		"bad value":       "m abc\n",
		"bad label name":  `m{0x="v"} 1` + "\n",
		"unquoted label":  `m{k=v} 1` + "\n",
		"unterminated":    `m{k="v} 1` + "\n",
		"bad escape":      `m{k="\q"} 1` + "\n",
		"duplicate TYPE":  "# TYPE m counter\n# TYPE m counter\nm 1\n",
		"unknown type":    "# TYPE m banana\nm 1\n",
		"TYPE after data": "m 1\n# TYPE m counter\n",
		"histogram without +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"histogram non-cumulative": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n",
		"histogram count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 4\n",
		"histogram missing sum": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_count 3\n",
		"histogram missing count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\n",
	}
	for name, text := range cases {
		if _, err := ParseText(text); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestParseTextAcceptsValidCorners(t *testing.T) {
	text := "# a bare comment\n" +
		"\n" +
		"# HELP m helpful text here\n" +
		"# TYPE m gauge\n" +
		"m{k=\"v\"} 1.5 1700000000\n" + // optional timestamp
		"untyped_series 3\n" +
		"nan_series NaN\n" +
		"inf_series +Inf\n"
	fams, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 4 {
		t.Fatalf("parsed %d families, want 4", len(fams))
	}
	if fams[0].Help != "helpful text here" || fams[0].Type != "gauge" {
		t.Errorf("family m = %+v", fams[0])
	}
	if fams[1].Type != "untyped" {
		t.Errorf("untyped series typed as %q", fams[1].Type)
	}
	if !math.IsNaN(fams[2].Samples[0].Value) || !math.IsInf(fams[3].Samples[0].Value, 1) {
		t.Error("NaN/+Inf values did not parse")
	}
}

func TestSortSamples(t *testing.T) {
	f := Family{
		Name: "m",
		Kind: KindCounter,
		Samples: []Sample{
			{Labels: []Label{{"format", "ELL"}}, Value: 2},
			{Labels: []Label{{"format", "CSR"}}, Value: 1},
			{Labels: []Label{{"format", "DIA"}}, Value: 3},
		},
	}
	SortSamples(&f)
	got := []string{f.Samples[0].Labels[0].Value, f.Samples[1].Labels[0].Value, f.Samples[2].Labels[0].Value}
	if got[0] != "CSR" || got[1] != "DIA" || got[2] != "ELL" {
		t.Errorf("sorted order %v", got)
	}
}

// TestParseTextExemplars: the v0.0.4 grammar /metrics declares ends a sample
// at its value or its timestamp, so an OpenMetrics exemplar tail — well
// formed or not — is rejected, while a bare integer timestamp still parses.
func TestParseTextExemplars(t *testing.T) {
	cases := []struct {
		name    string
		bucket  string
		wantErr bool
	}{
		{"bucket exemplar", `h_bucket{le="+Inf"} 1 # {trace_id="6ece"} 4.8373e-05`, true},
		{"escaped exemplar label", `h_bucket{le="+Inf"} 1 # {trace_id="a\"b\\c"} 1.5`, true},
		{"exemplar missing value", `h_bucket{le="+Inf"} 1 # {trace_id="x"}`, true},
		{"exemplar bad value", `h_bucket{le="+Inf"} 1 # {trace_id="x"} nope`, true},
		{"timestamp", `h_bucket{le="+Inf"} 1 1700000000000`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseText("# TYPE h histogram\n" + tc.bucket + "\nh_sum 1\nh_count 1\n")
			if tc.wantErr && err == nil {
				t.Fatal("parse accepted")
			}
			if !tc.wantErr && err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParseTextEscapedLabelValues: backslash escapes inside label values
// must decode exactly once.
func TestParseTextEscapedLabelValues(t *testing.T) {
	text := "# TYPE g gauge\n" +
		`g{path="C:\\tmp\\x",msg="say \"hi\"",nl="a\nb"} 1` + "\n"
	fams, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, l := range fams[0].Samples[0].Labels {
		got[l.Key] = l.Value
	}
	want := map[string]string{"path": `C:\tmp\x`, "msg": `say "hi"`, "nl": "a\nb"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("label %s = %q, want %q", k, got[k], v)
		}
	}
}

// TestParseTextNonFinite: NaN and signed infinities are legal sample values.
func TestParseTextNonFinite(t *testing.T) {
	text := "# TYPE g gauge\n" +
		`g{k="nan"} NaN` + "\n" +
		`g{k="pinf"} +Inf` + "\n" +
		`g{k="ninf"} -Inf` + "\n"
	fams, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, s := range fams[0].Samples {
		vals[s.Labels[0].Value] = s.Value
	}
	if !math.IsNaN(vals["nan"]) {
		t.Errorf("NaN parsed as %g", vals["nan"])
	}
	if !math.IsInf(vals["pinf"], 1) || !math.IsInf(vals["ninf"], -1) {
		t.Errorf("infinities parsed as %g / %g", vals["pinf"], vals["ninf"])
	}
}
