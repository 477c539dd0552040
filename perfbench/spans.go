package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"specweb/internal/httpspec"
	"specweb/internal/webgraph"
)

// layer names a seam of the stack the traced run records spans at.
type layer uint8

const (
	layerClient    layer = iota // httpspec.Client.GetCtx
	layerTransport              // the in-process http.RoundTripper
	layerServer                 // httpspec.Server as an http.Handler
	layerStore                  // httpspec.Store.Content
	numLayers
)

var layerNames = [numLayers]string{"client", "transport", "server", "store"}

// span is one call across a seam. Times are nanoseconds since the span
// set's epoch; parent indexes the same driver's spans (-1: none).
type span struct {
	start, end int64
	bytes      int64
	parent     int32
	req        uint32
	layer      layer
	// flag marks a client span served from the client cache, or a
	// transport span carrying a hint-driven prefetch.
	flag bool
}

// spanSet collects the spans of one traced arm. Each driver goroutine
// owns a tracer, so recording takes no lock; spans stay in memory until
// the arm ends.
type spanSet struct {
	epoch   time.Time
	active  atomic.Bool
	mu      sync.Mutex
	tracers []*tracer
	// byThread maps an OS thread ID to the tracer of the driver locked to
	// it. The Store seam carries no request context, so a store call finds
	// its driver, and its enclosing server span, through the thread it
	// runs on: the in-process stack runs every call of a request on the
	// goroutine of the driver that sent it, and a traced driver locks its
	// goroutine to one thread.
	byThread sync.Map
}

func newSpanSet() *spanSet { return &spanSet{epoch: time.Now()} }

// start and stop bracket the measurement; seams record nothing outside.
func (s *spanSet) start() {
	if s != nil {
		s.active.Store(true)
	}
}

func (s *spanSet) stop() {
	if s != nil {
		s.active.Store(false)
	}
}

// driver locks the calling goroutine to its thread and registers a
// tracer for it; done unlocks the thread when the driver finishes. Both
// are no-ops when untraced.
func (s *spanSet) driver() (t *tracer, done func()) {
	if s == nil {
		return nil, func() {}
	}
	t = &tracer{set: s, spans: make([]span, 0, 1<<16)}
	s.mu.Lock()
	s.tracers = append(s.tracers, t)
	s.mu.Unlock()
	runtime.LockOSThread()
	s.byThread.Store(syscall.Gettid(), t)
	return t, runtime.UnlockOSThread
}

// current returns the calling thread's tracer during measurement.
func (s *spanSet) current() *tracer {
	if !s.active.Load() {
		return nil
	}
	t, ok := s.byThread.Load(syscall.Gettid())
	if !ok {
		return nil
	}
	return t.(*tracer)
}

// tracer is one driver's span recorder. Calls nest strictly on the
// driver's goroutine, so the open-span stack gives every span its parent.
type tracer struct {
	set   *spanSet
	spans []span
	open  []int32
	req   uint32
}

type ctxKey struct{}

// reqTag is what a request's context carries to the seams: the driver's
// tracer and the demand request's ID.
type reqTag struct {
	t  *tracer
	id uint32
}

// next starts a new demand request and returns its context.
func (t *tracer) next() (context.Context, uint32) {
	t.req++
	return context.WithValue(context.Background(), ctxKey{}, reqTag{t: t, id: t.req}), t.req
}

func tagOf(ctx context.Context) (reqTag, bool) {
	tag, ok := ctx.Value(ctxKey{}).(reqTag)
	return tag, ok && tag.t.set.active.Load()
}

func (t *tracer) begin(l layer, req uint32) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.set.epoch)), parent: parent, req: req, layer: l})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32, n int64, flag bool) {
	sp := &t.spans[i]
	sp.end = int64(time.Since(t.set.epoch))
	sp.bytes = n
	sp.flag = flag
	t.open = t.open[:len(t.open)-1]
}

// tracedStore times Content calls; the other Store methods pass through.
type tracedStore struct {
	httpspec.Store
	spans *spanSet
}

func (s tracedStore) Content(id webgraph.DocID) ([]byte, bool) {
	t := s.spans.current()
	if t == nil || len(t.open) == 0 {
		return s.Store.Content(id)
	}
	i := t.begin(layerStore, t.spans[t.open[len(t.open)-1]].req)
	body, ok := s.Store.Content(id)
	t.end(i, int64(len(body)), false)
	return body, ok
}

// tracedHandler times the server's ServeHTTP.
type tracedHandler struct{ h http.Handler }

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tag, ok := tagOf(r.Context())
	if !ok {
		h.h.ServeHTTP(w, r)
		return
	}
	i := tag.t.begin(layerServer, tag.id)
	h.h.ServeHTTP(w, r)
	tag.t.end(i, 0, false)
}

// tracedTransport times the in-process round trip, which includes the
// request clone, the server, and the response-buffer growth.
type tracedTransport struct{ rt http.RoundTripper }

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tag, ok := tagOf(r.Context())
	if !ok {
		return t.rt.RoundTrip(r)
	}
	i := tag.t.begin(layerTransport, tag.id)
	resp, err := t.rt.RoundTrip(r)
	var n int64
	if resp != nil {
		n = resp.ContentLength
	}
	tag.t.end(i, n, r.Header.Get(httpspec.HeaderPrefetch) != "")
	return resp, err
}

// layerStats aggregates one layer's spans. Self time is busy time minus
// the busy time of the span's children.
type layerStats struct {
	count, flagged int64
	busyNs, selfNs int64
	bytes          int64
	durNs, plainNs []int64 // every span; spans without the flag
	unfinished     int64
}

// layerReport aggregates every layer of one traced arm.
func (s *spanSet) layerReport() [numLayers]layerStats {
	var ls [numLayers]layerStats
	for _, t := range s.tracers {
		child := make([]int64, len(t.spans))
		for _, sp := range t.spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range t.spans {
			l := &ls[sp.layer]
			if sp.end == 0 {
				l.unfinished++
				continue
			}
			d := sp.end - sp.start
			l.count++
			l.busyNs += d
			l.selfNs += d - child[i]
			l.bytes += sp.bytes
			l.durNs = append(l.durNs, d)
			if sp.flag {
				l.flagged++
			} else {
				l.plainNs = append(l.plainNs, d)
			}
		}
	}
	return ls
}

// write saves every span as CSV; parent and index are per driver.
func (s *spanSet) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "driver,index,parent,req,layer,start_ns,end_ns,bytes,flag")
	var line []byte
	for d, t := range s.tracers {
		for i, sp := range t.spans {
			line = line[:0]
			line = strconv.AppendInt(line, int64(d), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(sp.parent), 10)
			line = append(line, ',')
			line = strconv.AppendUint(line, uint64(sp.req), 10)
			line = append(line, ',')
			line = append(line, layerNames[sp.layer]...)
			line = append(line, ',')
			line = strconv.AppendInt(line, sp.start, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, sp.end, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, sp.bytes, 10)
			line = append(line, ',')
			line = strconv.AppendBool(line, sp.flag)
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
