package main

// Noise controls. A 2-vCPU guest shares its host: stolen time and
// neighbours' contention for the caches, memory and cores change from
// one run to the next, and raw job times follow them. Every timed
// end-to-end figure is therefore reported in reference-machine units:
//
//	reference value = raw value × √(refCalNs ÷ run calibration time)
//
// where the run calibration time is the median time of the frozen
// calibration kernel below over every calibration in the run. The
// kernel is a random gather like the engine's; it runs on every CPU at
// once, between jobs (or open-loop windows) while the server is idle,
// so the host slows it as it slows the jobs, but about twice as much:
// hence the square root (README.md has the measurements). The
// steal-based availability (/proc/stat busy and steal ticks) is
// recorded as a diagnostic. Before each calibration, the quiescence
// guard checks that the idle process burns no CPU.

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// calTableWords sizes the calibration table: 32 MiB of float64,
	// well past the private caches, like the engine's dense ELT
	// tables.
	calTableWords = 1 << 22
	// calGathers is each thread's load count per calibration.
	calGathers = 1 << 17
	// refCalNs is the reference machine's calibration time: the
	// median of calibrate() on a 2-vCPU Firecracker guest (go1.24,
	// linux/amd64) over quiet runs. Frozen: calibration-scaled
	// figures are relative to it.
	refCalNs = 12.0e6
)

// calScale is the factor that takes a run's timed figures to
// reference-machine units, given its calibration times in ns.
func calScale(samples []float64) float64 {
	return math.Sqrt(refCalNs / median(samples))
}

// calSink keeps the kernel's result live so the loop is not elided.
var calSink float64

// gatherKernel is the frozen calibration loop: n pseudo-random loads
// from table, each clamped to a layer-like band and accumulated. The
// index stream (xorshift64) does not depend on loaded values, so loads
// may overlap the way independent occurrence lookups do. Do not edit:
// bench.cal_ms and the calibration-scaled figures are relative to it.
func gatherKernel(table []float64, seed uint64, n int) float64 {
	mask := uint64(len(table) - 1)
	x := seed | 1
	var acc float64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := table[x&mask]
		acc += math.Min(math.Max(v-1e5, 0), 5e5)
	}
	return acc
}

// calibrator owns the calibration table and its measurements.
type calibrator struct {
	table   []float64
	threads int
	seq     uint64

	samples []float64 // every calibration's time, ns

	// Quiescence probe totals: process CPU and wall time spent in
	// the idle intervals before calibrations.
	idleCPU, idleWall time.Duration
}

// idleBusyShare is the share of the quiescence probes' wall time the
// process spent on CPU.
func (c *calibrator) idleBusyShare() float64 {
	if c.idleWall <= 0 {
		return 0
	}
	return float64(c.idleCPU) / float64(c.idleWall)
}

func newCalibrator() *calibrator {
	t := make([]float64, calTableWords)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = float64(x>>11) / (1 << 53) * 1e6
	}
	return &calibrator{table: t, threads: runtime.NumCPU()}
}

// quietProbe is the idle interval the quiescence guard watches before
// every calibration. quietShare is the share of those intervals' wall
// time the process may spend on CPU, summed over the run: the runtime's
// housekeeping stays far below it, a goroutine left spinning or a
// collection still running after every job does not. The guard judges
// the sum, not each interval, because getrusage can lag a running
// thread by a few milliseconds.
const (
	quietProbe = 3 * time.Millisecond
	quietShare = 0.25
)

// calibrate runs the kernel once on every CPU at once and returns the
// mean of the threads' own kernel times: the speed one thread gets
// under the host's current steal and contention. First it runs the
// quiescence probe: the process should burn next to no CPU while the
// benchmark sleeps with the server idle.
func (c *calibrator) calibrate() time.Duration {
	c.seq++
	cpu0, t0 := processCPU(), time.Now()
	time.Sleep(quietProbe)
	c.idleCPU += processCPU() - cpu0
	c.idleWall += time.Since(t0)
	var (
		wg    sync.WaitGroup
		ready sync.WaitGroup
		start = make(chan struct{})
		sums  = make([]float64, c.threads)
		took  = make([]time.Duration, c.threads)
	)
	ready.Add(c.threads)
	for i := 0; i < c.threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			<-start
			t0 := time.Now()
			sums[i] = gatherKernel(c.table, c.seq*0x100000001B3+uint64(i)*0x9E3779B97F4A7C15, calGathers)
			took[i] = time.Since(t0)
		}(i)
	}
	ready.Wait()
	close(start)
	wg.Wait()
	var mean time.Duration
	for i := range sums {
		calSink += sums[i]
		mean += took[i]
	}
	mean /= time.Duration(c.threads)
	c.samples = append(c.samples, float64(mean))
	return mean
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the kernel's clock-tick rate for /proc/stat counters.
const userHZ = 100

// cpuTicks reads the aggregate "cpu" line of /proc/stat: ticks the
// CPUs spent running something (user, nice, system, irq, softirq) and
// ticks the host stole from them.
func cpuTicks() (busy, steal uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, fmt.Errorf("/proc/stat: empty")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", sc.Text())
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// stealProbe measures host steal over an interval.
type stealProbe struct {
	t0          time.Time
	busy, steal uint64
	err         error
}

func startSteal() stealProbe {
	busy, steal, err := cpuTicks()
	return stealProbe{t0: time.Now(), busy: busy, steal: steal, err: err}
}

// pct is the stolen share of all CPUs' wall time since the probe
// started, in percent.
func (p stealProbe) pct() float64 {
	_, steal, err := cpuTicks()
	wall := time.Since(p.t0).Seconds() * float64(runtime.NumCPU())
	if p.err != nil || err != nil || wall <= 0 {
		return 0
	}
	return float64(steal-p.steal) / userHZ / wall * 100
}

// availability is the share of the CPU time the guest wanted since the
// probe started that the host granted: busy ÷ (busy + stolen). Work
// that took t wall-clock seconds would have taken t × availability on
// a host that stole nothing; a quiet host gives 1.
func (p stealProbe) availability() (float64, error) {
	busy, steal, err := cpuTicks()
	if p.err != nil {
		return 0, p.err
	}
	if err != nil {
		return 0, err
	}
	b, s := float64(busy-p.busy), float64(steal-p.steal)
	if b+s == 0 {
		return 1, nil
	}
	return b / (b + s), nil
}

// resetPeakRSS lowers the process's resident-set high-water mark to its
// current resident set (writing 5 to /proc/self/clear_refs, Linux 4.0
// and later) and returns that level in MB of 10^6 bytes.
func resetPeakRSS() (float64, error) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("reset peak RSS: %w", err)
	}
	rss := peakRSSMB()
	if rss <= 0 {
		return 0, fmt.Errorf("reset peak RSS: no VmHWM in /proc/self/status")
	}
	return rss, nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM),
// in MB of 10^6 bytes.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}
