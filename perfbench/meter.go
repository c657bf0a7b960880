package main

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Meter phases: callers run during warm-up, are recorded while
// measuring, and finish their current request once stopped.
const (
	warming int32 = iota
	measuring
	stopped
)

// span is one traced request at one layer boundary. Every span of one
// generated request carries that request's id.
type span struct {
	ID    int    `json:"id"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanEvery samples the spans kept in memory: only requests whose id is
// a multiple of it are traced, and one layer keeps about maxSpans.
const (
	spanEvery = 8
	maxSpans  = 4096
)

// meter times the callers of one layer: a warm-up, a measured interval
// cut into windows, then a stop. Counters cover the whole run; latency
// histograms cover only the measured interval.
type meter struct {
	layer  string
	traced bool
	phase  atomic.Int32
	// start (UnixNano) and win (ns) place the measured windows; the
	// controller sets them before it publishes the measuring phase.
	start, win int64

	attempted, failed atomic.Int64
	errOnce           sync.Once
	firstErr          error

	// hists[c][w] counts caller c's latencies of requests completed in
	// window w. Histograms have a fixed size, so the benchmark's own
	// memory does not grow with throughput or run length and the
	// system's peak memory, a measured metric, stays the system's.
	hists   [][]histogram
	spans   [][]span
	spanCap int // per caller
}

func newMeter(layer string, callers int, traced bool) *meter {
	return &meter{layer: layer, traced: traced, hists: make([][]histogram, callers), spans: make([][]span, callers),
		spanCap: max(8, maxSpans/callers)}
}

func (m *meter) running() bool { return m.phase.Load() != stopped }

// done records one attempted request of caller c.
func (m *meter) done(c int, it *item, t0, t1 time.Time, err error) {
	m.attempted.Add(1)
	if err != nil {
		m.failed.Add(1)
		m.errOnce.Do(func() { m.firstErr = err })
		return
	}
	if m.phase.Load() != measuring {
		return
	}
	w := min(max(int((t1.UnixNano()-m.start)/m.win), 0), len(m.hists[c])-1)
	m.hists[c][w].add(t1.Sub(t0))
	if m.traced && it.id%spanEvery == 0 && len(m.spans[c]) < m.spanCap {
		m.spans[c] = append(m.spans[c], span{ID: it.id, Layer: m.layer, Start: t0.UnixNano(), End: t1.UnixNano()})
	}
}

// measurement is what the controller saw of the measured interval.
type measurement struct {
	win        time.Duration
	cpu        []time.Duration // process CPU time at each window boundary
	allocBytes uint64
	gcCycles   uint32
	peakMB     float64   // peak RSS when the measured interval ended
	samples    []float64 // values of the optional gauge
}

// control runs the phases: warm, then measure cut into windows, then
// stop. gauge, if set, is sampled every 10 ms while measuring.
func (m *meter) control(warm, measure time.Duration, gauge func() float64) measurement {
	// A fixed number of windows keeps the histograms' memory independent
	// of run length.
	wins := 10
	if measure < 5*time.Second {
		wins = 5
	}
	for c := range m.hists {
		m.hists[c] = make([]histogram, wins)
	}
	time.Sleep(warm)
	win := measure / time.Duration(wins)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out := measurement{win: win}
	stopGauge := make(chan struct{})
	var gaugeDone sync.WaitGroup
	if gauge != nil {
		// Sized for one sample per 10 ms, so appending never reallocates.
		out.samples = make([]float64, 0, int(measure/(10*time.Millisecond))+1)
		gaugeDone.Add(1)
		go func() {
			defer gaugeDone.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopGauge:
					return
				case <-tick.C:
					out.samples = append(out.samples, gauge())
				}
			}
		}()
	}
	t0 := time.Now()
	out.cpu = append(out.cpu, cpuTime())
	m.start, m.win = t0.UnixNano(), int64(win)
	m.phase.Store(measuring)
	for i := 1; i <= wins; i++ {
		time.Sleep(time.Until(t0.Add(win * time.Duration(i))))
		out.cpu = append(out.cpu, cpuTime())
	}
	m.phase.Store(stopped)
	out.peakMB = peakRSSMB()
	close(stopGauge)
	gaugeDone.Wait()
	runtime.ReadMemStats(&ms1)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcCycles = ms1.NumGC - ms0.NumGC
	return out
}

// layerStats summarizes one measured layer. Rates, percentiles and CPU
// per request are medians over the measured windows, so one disturbed
// window does not move them.
type layerStats struct {
	layer             string
	completed         int64 // verified completions in the measured interval
	attempted, failed int64 // every request of the run, warm-up included
	reqsPerSec        float64
	p50us, p99us      float64
	cpuUsPerReq       float64
	medianUs          float64 // over every measured sample
	allocPerReq       float64
	gcPerKReq         float64
	peakMB            float64
	gaugeMean         float64
	windows           map[string][]float64 // per-window values, for the record
	firstErr          error
	spans             []span
}

func (m *meter) summarize(ms measurement) layerStats {
	st := layerStats{
		layer:     m.layer,
		attempted: m.attempted.Load(),
		failed:    m.failed.Load(),
		peakMB:    ms.peakMB,
		firstErr:  m.firstErr,
	}
	for c := range m.spans {
		st.spans = append(st.spans, m.spans[c]...)
	}
	var all histogram
	var rates, p50s, p99s, cpus []float64
	for w := range len(ms.cpu) - 1 {
		var h histogram
		for c := range m.hists {
			h.merge(&m.hists[c][w])
		}
		if h.n == 0 {
			continue
		}
		all.merge(&h)
		rates = append(rates, float64(h.n)/ms.win.Seconds())
		p50s = append(p50s, h.quantileUs(0.50))
		p99s = append(p99s, h.quantileUs(0.99))
		cpus = append(cpus, float64((ms.cpu[w+1]-ms.cpu[w]).Microseconds())/float64(h.n))
	}
	st.completed = int64(all.n)
	if st.completed == 0 {
		return st
	}
	st.reqsPerSec = median(rates)
	st.p50us = median(p50s)
	st.p99us = median(p99s)
	st.cpuUsPerReq = median(cpus)
	st.medianUs = all.quantileUs(0.5)
	st.allocPerReq = float64(ms.allocBytes) / float64(st.completed)
	st.gcPerKReq = float64(ms.gcCycles) / (float64(st.completed) / 1000)
	st.gaugeMean = mean(ms.samples)
	st.windows = map[string][]float64{"reqs_per_s": rates, "latency_p50_us": p50s, "latency_p99_us": p99s, "cpu_us_per_req": cpus}
	return st
}

// histogram counts latencies in log-spaced buckets: exact below 64 ns,
// then 64 buckets per power of two (under 1.6% wide) up to 2^histTop ns.
type histogram struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histSub     = 64
	histTop     = 38 // 2^38 ns is over 4 minutes, beyond any run
	histBuckets = (histTop - 5) * histSub
)

func (h *histogram) add(d time.Duration) {
	h.n++
	h.counts[bucketOf(uint64(max(d, 0)))]++
}

func (h *histogram) merge(o *histogram) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// bucketOf maps ns to its bucket: v itself below histSub, else 64 + the
// octave's offset and the six bits after the leading one.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) // 7 or more
	b := (e-6)*histSub + int(v>>(e-7)) - histSub
	return min(b, histBuckets-1)
}

// bucketRange is the lowest ns of bucket b and its width.
func bucketRange(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	shift := b/histSub - 1
	return float64((histSub + b%histSub) << shift), float64(uint64(1) << shift)
}

// quantileUs is the q-quantile in µs, interpolated linearly by rank
// inside the bucket that holds it.
func (h *histogram) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var below float64
	for b, c := range h.counts {
		if c == 0 || below+float64(c) <= rank {
			below += float64(c)
			continue
		}
		lo, width := bucketRange(b)
		return (lo + (rank-below+0.5)/float64(c)*width) / 1e3
	}
	return 0 // unreachable: rank < n
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
