package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the p90 by nearest rank. With the 700 requests of serve-open
// that leaves 70 samples beyond it; with the handful of runs of figs-* it
// is the slowest or second-slowest run.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[int(math.Ceil(0.9*float64(len(s))))-1]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a reading of the process counters the benchmark deltas.
type rtSample struct {
	wall   time.Time
	cpu    time.Duration
	gcCPU  float64 // seconds
	allocB uint64
	gcs    uint64
}

var rtNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func sampleRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := rtSample{wall: time.Now(), cpu: cpuTime()}
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.allocB = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		s.gcs = ms[2].Value.Uint64()
	}
	return s
}

// rtDelta is the change between two samples.
type rtDelta struct {
	wallS, cpuS, gcCPUS, allocMB, gcCycles float64
}

func (a rtSample) to(b rtSample) rtDelta {
	return rtDelta{
		wallS:    b.wall.Sub(a.wall).Seconds(),
		cpuS:     (b.cpu - a.cpu).Seconds(),
		gcCPUS:   b.gcCPU - a.gcCPU,
		allocMB:  float64(b.allocB-a.allocB) / (1 << 20),
		gcCycles: float64(b.gcs - a.gcs),
	}
}

// liveHeapMB forces a collection and reports the live heap it marked.
func liveHeapMB() float64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	if ms[0].Value.Kind() != metrics.KindUint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	return float64(ms[0].Value.Uint64()) / (1 << 20)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// ratio is num/den, or 1 when there was nothing to count (no lookups means
// nothing missed).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}
