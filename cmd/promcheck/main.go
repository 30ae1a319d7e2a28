// Command promcheck validates a Prometheus text exposition read from stdin
// using the repo's own parser (internal/obs). It exits nonzero when the
// input does not parse, holds fewer histogram families than -min-hist
// requires, or is missing a family named by -require. The CI smoke jobs pipe
// `curl /metrics` through it to prove the daemons' expositions are really
// scrapeable and that new metric families actually show up.
//
//	curl -fsS localhost:8080/metrics | promcheck -min-hist 6
//	curl -fsS localhost:8080/metrics | promcheck -require ocsd_registry_bytes,ocsd_spmv_seconds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	minHist := flag.Int("min-hist", 0, "minimum number of histogram families required")
	require := flag.String("require", "", "comma-separated family names that must be present")
	flag.Parse()

	body, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promcheck: reading stdin: %v\n", err)
		os.Exit(1)
	}
	fams, err := obs.ParseText(string(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "promcheck: exposition invalid: %v\n", err)
		os.Exit(1)
	}
	hist := 0
	present := make(map[string]bool, len(fams))
	for _, f := range fams {
		present[f.Name] = true
		if f.Type == "histogram" {
			hist++
		}
	}
	if hist < *minHist {
		fmt.Fprintf(os.Stderr, "promcheck: %d histogram families, need >= %d\n", hist, *minHist)
		os.Exit(1)
	}
	var missing []string
	for _, name := range strings.Split(*require, ",") {
		if name = strings.TrimSpace(name); name != "" && !present[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "promcheck: required families missing: %s\n", strings.Join(missing, ", "))
		os.Exit(1)
	}
	fmt.Printf("promcheck: %d families ok (%d histograms)\n", len(fams), hist)
}
