package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"code56/internal/serve"
	"code56/internal/telemetry"
)

// spanCapacity bounds the in-memory span store of a traced run (about
// 30 MB); older events are dropped, and counted, once it is full.
const spanCapacity = 1 << 17

// samples is a concurrently appendable list of durations in µs.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(us float64) {
	s.mu.Lock()
	s.v = append(s.v, us)
	s.mu.Unlock()
}

func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.v, q)
}

// tracing is a traced run's instrumentation. It times calls into the
// program's public interfaces from outside — an http.Handler around the
// server, a serve.BlockIO around the array or migrator, spans around bulk
// calls — and keeps every span in memory until the run ends.
type tracing struct {
	tr   *telemetry.Tracer
	ring *telemetry.RingSink

	mu     sync.Mutex
	layers map[string]*samples

	nextReq  atomic.Int64
	inflight sync.Map // ioKey -> *reqRec: the handler call a BlockIO call belongs to
	handled  sync.Map // request id -> handler duration, for the client's wire time
}

func newTracing() *tracing {
	ring := telemetry.NewRingSink(spanCapacity)
	return &tracing{tr: telemetry.NewTracer(ring), ring: ring, layers: map[string]*samples{}}
}

// layer returns the samples recorded under name.
func (t *tracing) layer(name string) *samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.layers[name]
	if s == nil {
		s = &samples{}
		t.layers[name] = s
	}
	return s
}

// span starts a span; on an untraced run (nil t) the span is inert.
func (t *tracing) span(name string, attrs ...telemetry.Attr) *telemetry.Span {
	if t == nil {
		return nil
	}
	return t.tr.StartSpan(name, attrs...)
}

// ioKey names a BlockIO call: the handler serving a request for this
// block and direction is the call's parent.
type ioKey struct {
	write bool
	block int64
}

type reqRec struct {
	id        string
	ioNanos   atomic.Int64
	contended atomic.Bool // another request for the same key was in flight
}

// wrapHandler times every request the server handles, and the handler's
// self time: its duration minus the BlockIO call inside it.
func (t *tracing) wrapHandler(h http.Handler) http.Handler {
	handler, self := t.layer("serve.handler"), t.layer("serve.self")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqHeader)
		block, _ := strconv.ParseInt(r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:], 10, 64)
		key := ioKey{write: r.Method == http.MethodPut, block: block}
		rec := &reqRec{id: id}
		if prev, dup := t.inflight.LoadOrStore(key, rec); dup {
			prev.(*reqRec).contended.Store(true)
			rec = nil
		}
		sp := t.tr.StartSpan("serve.handler",
			telemetry.A("req", id), telemetry.A("method", r.Method), telemetry.A("block", block))
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		sp.End()
		handler.add(micros(d))
		if rec != nil {
			t.inflight.Delete(key)
			if io := rec.ioNanos.Load(); io > 0 && !rec.contended.Load() {
				self.add(micros(d - time.Duration(io)))
			}
		}
		if id != "" {
			t.handled.Store(id, d)
		}
	})
}

// wire records a request's client latency minus its handler time.
func (t *tracing) wire(id int64, clientUS float64) {
	if d, ok := t.handled.LoadAndDelete(strconv.FormatInt(id, 10)); ok {
		t.layer("serve.wire").add(clientUS - micros(d.(time.Duration)))
	}
}

// tracedIO times the calls into a serve.BlockIO; layer names the module
// behind it ("raid6" or "migrate").
type tracedIO struct {
	inner       serve.BlockIO
	t           *tracing
	name        [2]string
	read, write *samples
}

func (t *tracing) wrapIO(layer string, inner serve.BlockIO) serve.BlockIO {
	return &tracedIO{
		inner: inner, t: t,
		name: [2]string{layer + ".read", layer + ".write"},
		read: t.layer(layer + ".read"), write: t.layer(layer + ".write"),
	}
}

func (x *tracedIO) BlockSize() int { return x.inner.BlockSize() }

func (x *tracedIO) ReadBlock(n int64, buf []byte) error { return x.call(false, n, buf) }

func (x *tracedIO) WriteBlock(n int64, buf []byte) error { return x.call(true, n, buf) }

func (x *tracedIO) call(write bool, n int64, buf []byte) error {
	var rec *reqRec
	if v, ok := x.t.inflight.Load(ioKey{write: write, block: n}); ok {
		rec = v.(*reqRec)
	}
	kind, s := 0, x.read
	if write {
		kind, s = 1, x.write
	}
	var req string
	if rec != nil {
		req = rec.id
	}
	sp := x.t.tr.StartSpan(x.name[kind], telemetry.A("req", req), telemetry.A("parent", "serve.handler"), telemetry.A("block", n))
	start := time.Now()
	var err error
	if write {
		err = x.inner.WriteBlock(n, buf)
	} else {
		err = x.inner.ReadBlock(n, buf)
	}
	d := time.Since(start)
	sp.End()
	s.add(micros(d))
	if rec != nil {
		rec.ioNanos.Store(int64(d))
	}
	return err
}

// writeSpans writes every span still held in memory to path as JSON lines.
func (t *tracing) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	sink := telemetry.NewJSONLSink(bw)
	for _, e := range t.ring.Events() {
		sink.Emit(e)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
