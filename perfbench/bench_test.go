package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		ok      bool
		pct     float64
		wantVal float64
	}{
		{n: 0},
		{n: 19},                                 // the median leaves 9 beyond it
		{n: 20, ok: true, pct: 50, wantVal: 10}, // exactly 10 beyond
		{n: 49, ok: true, pct: 75, wantVal: 37}, // p80 would leave 9
		{n: 50, ok: true, pct: 80, wantVal: 40},
		{n: 67, ok: true, pct: 85, wantVal: 57},
		{n: 199, ok: true, pct: 90, wantVal: 180},
		{n: 999, ok: true, pct: 95, wantVal: 950},
		{n: 1000, ok: true, pct: 99, wantVal: 990},
		{n: 10000, ok: true, pct: 99.9, wantVal: 9990},
	} {
		pct, v, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || v != tc.wantVal {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, pct, v, ok, tc.pct, tc.wantVal, tc.ok)
		}
		if ok && tc.n-int(v) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, tc.n-int(v), pct)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "parent", start: at(0), end: at(100), parent: -1},
		{name: "a", start: at(10), end: at(30), parent: 0},
		{name: "b", start: at(20), end: at(40), parent: 0},  // overlaps a: counted once
		{name: "c", start: at(90), end: at(120), parent: 0}, // clipped at the parent's end
		{name: "grandchild", start: at(15), end: at(25), parent: 1},
		{name: "other", start: at(60), end: at(70), parent: -1}, // not a child
	}
	if got, want := selfTime(spans, 0), 60*time.Millisecond; got != want {
		t.Errorf("parent self time %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 1), 10*time.Millisecond; got != want {
		t.Errorf("child self time %v, want %v (its own child covers 10ms)", got, want)
	}
	if got, want := selfTime(spans, 5), 10*time.Millisecond; got != want {
		t.Errorf("leaf self time %v, want %v", got, want)
	}
}

// TestQuiescenceGuard: CPU burned by anything in the process while the
// server should be idle must trip the guard.
func TestQuiescenceGuard(t *testing.T) {
	c := newCalibrator()
	stop := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	for i := 0; i < 5; i++ {
		c.calibrate()
	}
	close(stop)
	<-done
	if share := c.idleBusyShare(); share <= quietShare {
		t.Fatalf("a spinning goroutine used %.2f of the idle probes, at or under the %.2f limit", share, quietShare)
	}
}

// TestResetPeakRSS: after memory is returned to the OS, the reset must
// lower the high-water mark, or peak_rss_mb would still count it.
func TestResetPeakRSS(t *testing.T) {
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	before := peakRSSMB()
	buf = nil
	quiesce()
	after, err := resetPeakRSS()
	if err != nil {
		t.Fatal(err)
	}
	if before-after < 32 {
		t.Fatalf("peak RSS %.1f MB before freeing 67 MB, %.1f MB after the reset", before, after)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at minimal size, untraced and traced,
// and checks that every metric BENCHMARK.json names is emitted with
// its unit, that every answer matched the oracle and nothing failed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool, len(workloadNames))
	for _, wl := range workloadNames {
		known[wl] = true
	}
	for _, wl := range bf.Workloads {
		if !known[wl.Name] {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not have", wl.Name)
		}
	}
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, diag, err := run(options{workload: wl, seed: 7, seconds: 1, trace: trace, tiny: true, setups: 2})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d/%d, diagnostics %v", wl, trace, res.Correct, res.Failed, res.Attempted, diag)
			}
			if share := diag["failed_share"].(float64); share != 0 {
				t.Fatalf("%s trace=%v: failed_share %v", wl, trace, share)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", wl, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
