package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"
)

// sample is one measured job.
type sample struct {
	job     *jobSpec
	out     outcome
	raw     time.Duration // due (closed loop: submit) to last result byte
	sendLag time.Duration // submit − due (closed loop: − when the client was ready)
}

// window is the resource use of one stretch of traffic, calibrations
// excluded.
type window struct {
	cpu   time.Duration
	alloc uint64
}

// heapAllocs reads the runtime's cumulative heap allocation counter:
// process-local and sampled by the runtime, so reading it allocates
// nothing and counts no polling.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// meter brackets one stretch of traffic.
type meter struct {
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter { return meter{cpu: processCPU(), alloc: heapAllocs()} }

func (m meter) stop() window {
	return window{cpu: processCPU() - m.cpu, alloc: heapAllocs() - m.alloc}
}

// closedLoop runs one client that sends the next job as soon as the
// previous answer is in, cycling through the workload's base specs,
// until n jobs are answered. A calibration runs between every two
// jobs, while the server is idle.
func closedLoop(svc *service, w *workload, cal *calibrator, n int, tr *tracer) ([]sample, []window) {
	var (
		samples []sample
		windows []window
	)
	cal.calibrate()
	for i := 0; i < n; i++ {
		s := w.base[i%len(w.base)]
		ready := time.Now()
		m := startMeter()
		out := svc.cli.run(s.body, svc.key(0))
		windows = append(windows, m.stop())
		tr.job(len(samples), out.times)
		samples = append(samples, sample{job: s, out: out,
			raw: out.times.resultAt.Sub(out.times.submit), sendLag: out.times.submit.Sub(ready)})
		cal.calibrate()
	}
	return samples, windows
}

// burstWindow is how much of the open-loop schedule runs between two
// calibration gaps.
const burstWindow = 2 * time.Second

// gapCalibrations is how many calibrations run in each open-loop gap.
// A 12 s schedule has 7 gaps where a closed loop of 60 jobs has 61, and
// single calibrations scatter by ±10%: a median of 7 left quote-burst
// noisier scaled than raw.
const gapCalibrations = 8

func calibrateGap(cal *calibrator) {
	for i := 0; i < gapCalibrations; i++ {
		cal.calibrate()
	}
}

// openLoop replays a seeded arrival schedule: each job is sent when it
// is due, whatever the server is doing, and timed from that due time.
// The schedule runs in windows of burstWindow; between windows the
// client lets every job in flight finish and calibrates. At most
// maxInFlight jobs are outstanding; an arrival that finds no slot
// waits, and the wait shows as send lag and latency.
func openLoop(svc *service, schedule []arrival, cal *calibrator, tr *tracer) ([]sample, []window, error) {
	const maxInFlight = 64 // the server's default admission queue depth
	var (
		samples []sample
		windows []window
		mu      sync.Mutex
	)
	slots := make(chan struct{}, maxInFlight)
	calibrateGap(cal)
	for lo := 0; lo < len(schedule); {
		winStart := schedule[lo].due.Truncate(burstWindow)
		hi := lo
		for hi < len(schedule) && schedule[hi].due < winStart+burstWindow {
			hi++
		}
		m := startMeter()
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, a := range schedule[lo:hi] {
			due := t0.Add(a.due - winStart)
			time.Sleep(time.Until(due))
			slots <- struct{}{}
			wg.Add(1)
			go func(a arrival, due time.Time) {
				defer wg.Done()
				defer func() { <-slots }()
				out := svc.cli.run(a.job.body, svc.key(a.tenant))
				mu.Lock()
				defer mu.Unlock()
				tr.job(len(samples), out.times)
				samples = append(samples, sample{job: a.job, out: out,
					raw: out.times.resultAt.Sub(due), sendLag: out.times.submit.Sub(due)})
			}(a, due)
		}
		wg.Wait()
		windows = append(windows, m.stop())
		calibrateGap(cal)
		lo = hi
	}
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("open loop: empty schedule")
	}
	return samples, windows, nil
}
