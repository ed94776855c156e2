package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// asserts only that the checks pass and every metric is printed. It
// makes no timing assertion.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dsserve and starts child processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dsserve")
	if out, err := exec.Command("go", "build", "-o", bin, "dsketch/cmd/dsserve").CombinedOutput(); err != nil {
		t.Fatalf("building dsserve: %v\n%s", err, out)
	}
	for _, wl := range []string{"pool-zipf", "pool-uniform-stale", "cluster-routed", "cluster-rebalance"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var stdout bytes.Buffer
				code := run([]string{"-workload", wl, "-seed", "7", "-seconds", "0.5", "-trace", trace,
					"-tiny", "-dsserve", bin, "-workdir", t.TempDir()}, &stdout)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("exit %d, last line %q: %v", code, lines[len(lines)-1], err)
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v", code, res)
				}
				want := e2eUnits
				if trace == "1" {
					want = layerUnits
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
				}
			})
		}
	}
}
