package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapAllocs reads the cumulative bytes the Go heap has allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapWatch samples the live heap on a ticker until stop returns, and
// keeps the maximum it saw.
type heapWatch struct {
	stopCh chan struct{}
	done   sync.WaitGroup
	mu     sync.Mutex
	peak   uint64
}

func watchHeap(every time.Duration) *heapWatch {
	w := &heapWatch{stopCh: make(chan struct{}), peak: liveHeap()}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-w.stopCh:
				return
			case <-tick.C:
				w.observe()
			}
		}
	}()
	return w
}

func (w *heapWatch) observe() {
	v := liveHeap()
	w.mu.Lock()
	if v > w.peak {
		w.peak = v
	}
	w.mu.Unlock()
}

// stop ends sampling, waits for the sampler to exit and returns the peak
// live heap in MB.
func (w *heapWatch) stop() float64 {
	close(w.stopCh)
	w.done.Wait()
	w.observe()
	return float64(w.peak) / (1 << 20)
}
