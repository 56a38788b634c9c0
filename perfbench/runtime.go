package main

import (
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"
)

const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mHeapLive = "/memory/classes/heap/objects:bytes"
)

// runtimeDelta is the Go runtime's work over an interval.
type runtimeDelta struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds available to the process (GOMAXPROCS × wall)
}

func (d *runtimeDelta) add(o runtimeDelta) {
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
}

func readRuntime() runtimeDelta {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func since(before runtimeDelta) runtimeDelta {
	now := readRuntime()
	return runtimeDelta{
		allocBytes: now.allocBytes - before.allocBytes,
		gcCycles:   now.gcCycles - before.gcCycles,
		gcCPU:      now.gcCPU - before.gcCPU,
		totalCPU:   now.totalCPU - before.totalCPU,
	}
}

func heapLive() uint64 {
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the largest heap seen while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if v := heapLive(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends the sampling and returns the peak heap in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// peakRSSMB is the process's peak resident set so far. The process runs one
// workload, so it is that workload's alone.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
