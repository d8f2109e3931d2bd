package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
)

// refNominal is refKernel's time, in seconds, on the idle 2-core host the
// bounds in BENCHMARK.json were set on (README.md, "Host noise").
const refNominal = 0.035

// refEvery is how often a pass stops between two measurement points to time
// refKernel again.
const refEvery = 0.5 // seconds

// refKernel is fixed CPU and memory work in the benchmark's own code, which
// no change to the simulator can speed up or slow down: a sort of 2 MiB of
// integers and a hold loop on a 128 KiB binary heap. It allocates nothing
// after construction, so the heap the measured code leaves behind cannot
// change its time.
//
// The host this benchmark runs on is shared: its speed drifts by tens of
// percent, in bursts from tens of milliseconds to minutes, and CPU time
// drifts with wall time, so the drift is not descheduling. A pass times
// the kernel before it starts, every refEvery seconds between measurement
// points (outside the pass's timing) and after it ends, and is scaled by
// refNominal over the mean of those times (README.md, "Host noise").
type refKernel struct {
	pristine, work []int
	heap           []int64
	rng            *rand.Rand
}

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{pristine: make([]int, 1<<18), work: make([]int, 1<<18), heap: make([]int64, 1<<14), rng: rng}
	for i := range k.pristine {
		k.pristine[i] = rng.Int()
	}
	k.run() // fault its pages in before the first measurement
	return k
}

// run does the kernel's work once and returns its wall time in seconds.
func (k *refKernel) run() float64 {
	t0 := now()
	copy(k.work, k.pristine)
	slices.Sort(k.work)
	h := k.heap
	for i := range h {
		h[i] = int64(k.work[i] >> 32)
	}
	k.rng.Seed(2)
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := 0; i < 1<<17; i++ {
		h[0] += 1 + k.rng.Int63n(1<<20) // pop the minimum and push it back later
		siftDown(h, 0)
	}
	return since(t0)
}

// siftDown restores the min-heap order below i.
func siftDown(h []int64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// hostFactor is the scale that turns a wall time measured while the kernel
// took the given times into reference-host seconds.
func hostFactor(refs ...float64) float64 { return refNominal / mean(refs) }

// echoNominal is echoRef's median round trip, in seconds, on the same idle
// host.
const echoNominal = 40e-6

// echoRef times HTTP round trips through net/http alone: a handler of the
// benchmark's own that answers every POST with the same 2 KiB, called by
// two clients at once over the loopback — the shape of a serve-mix cache
// hit without the service. A hit's latency is bound by goroutine wake-ups
// and the loopback, which drift with the host unlike the CPU-bound work
// refKernel times, so hits are scaled by this reference instead. It runs
// between rounds, when no server of the service is alive.
type echoRef struct {
	ts      *httptest.Server
	clients [2]*client
}

func newEchoRef() *echoRef {
	body := make([]byte, 2048)
	e := &echoRef{ts: httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Write(body)
	}))}
	for i := range e.clients {
		tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
		e.clients[i] = &client{tr: tr, hc: &http.Client{Transport: tr}, base: e.ts.URL, lane: i}
	}
	e.run() // open the connections
	return e
}

// run makes 500 round trips from each client and returns the median, in
// seconds; a failed request counts as infinitely slow.
func (e *echoRef) run() float64 {
	var lat [2][]float64
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				a, err := c.send(http.MethodPost, "/")
				d := a.end.Sub(a.start).Seconds()
				if err != nil {
					d = math.Inf(1)
				}
				lat[i] = append(lat[i], d)
			}
		}()
	}
	wg.Wait()
	return median(slices.Concat(lat[0], lat[1]))
}

func (e *echoRef) close() {
	for _, c := range e.clients {
		c.tr.CloseIdleConnections()
	}
	e.ts.Close()
}

// echoFactor is hostFactor for request latencies bound by echoRef's work.
func echoFactor(before, after float64) float64 { return 2 * echoNominal / (before + after) }
