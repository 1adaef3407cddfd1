package main

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// reqKey carries a load request's state through serve.Client into the
// client transport.
type reqKey struct{}

type reqState struct {
	id      int64
	span    int64
	refused atomic.Bool
}

// clientTransport sits under serve.Client. It marks a request refused when
// any of its round trips got a 503, counts view lookups, and with a
// tracer times each round trip (to the end of its body) as a child span
// of the request.
type clientTransport struct {
	base http.RoundTripper
	tr   *tracer

	views    atomic.Int64
	refusals atomic.Int64
	mu       sync.Mutex
	rtMs     []float64
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st, _ := req.Context().Value(reqKey{}).(*reqState)
	view := req.URL.Path == "/view"
	if view {
		c.views.Add(1)
	}
	if c.tr == nil {
		resp, err := c.base.RoundTrip(req)
		c.noteStatus(st, resp)
		return resp, err
	}
	name, parent, rid := "client.roundtrip", int64(0), int64(-1)
	if view {
		name = "client.view"
	}
	if st != nil {
		parent, rid = st.span, st.id
	}
	id := c.tr.begin(name, parent, rid)
	t0 := time.Now()
	resp, err := c.base.RoundTrip(req)
	c.noteStatus(st, resp)
	finish := func() {
		c.tr.end(id)
		if !view {
			c.mu.Lock()
			c.rtMs = append(c.rtMs, millis(time.Since(t0)))
			c.mu.Unlock()
		}
	}
	if err != nil {
		finish()
		return resp, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, f: finish}
	return resp, nil
}

func (c *clientTransport) noteStatus(st *reqState, resp *http.Response) {
	if resp != nil && resp.StatusCode == http.StatusServiceUnavailable {
		c.refusals.Add(1)
		if st != nil {
			st.refused.Store(true)
		}
	}
}

func (c *clientTransport) roundTrips() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.rtMs...)
}

// endOnClose runs f once, when the body is closed.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	f    func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.f)
	return err
}

// rpcStats times the replicas' outbound RPCs, seen through the
// serve.DeployConfig.Transport seam: forwards to the backup, pings to the
// view service, and state transfers. Their spans have no parent: linking
// them to the client request needs tracing inside the service.
type rpcStats struct {
	tr       *tracer
	mu       sync.Mutex
	fwdMs    []float64
	fwdBytes int64
	pings    int64
}

type rpcTransport struct {
	base http.RoundTripper
	s    *rpcStats
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var name string
	switch req.URL.Path {
	case "/internal/apply":
		name = "replica.forward"
	case "/ping":
		name = "replica.ping"
	case "/internal/transfer":
		name = "replica.transfer"
	default:
		name = "replica.rpc"
	}
	id := t.s.tr.begin(name, 0, -1)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	el := time.Since(t0)
	t.s.tr.end(id)
	t.s.mu.Lock()
	switch name {
	case "replica.forward":
		t.s.fwdMs = append(t.s.fwdMs, millis(el))
		t.s.fwdBytes += req.ContentLength
	case "replica.ping":
		t.s.pings++
	}
	t.s.mu.Unlock()
	return resp, err
}

// layerTimes holds the traced run's timings of the calls the benchmark
// makes on the reference backend for the keys it checks.
type layerTimes struct {
	queryMs, encodeMs, pairReadMs []float64
}

// answer times the typed query and a store point read for req, next to
// the full Answer call the check already timed.
func (lt *layerTimes) answer(req request, total time.Duration, ref *serve.Backend) {
	if lt == nil || !pairEndpoint(req.endpoint) {
		return
	}
	ctx := context.Background()
	t0 := time.Now()
	switch req.endpoint {
	case "series":
		ref.Series(ctx, req.q)
	case "paths":
		ref.Paths(ctx, req.q)
	case "summary":
		ref.Summary(ctx, req.q)
	}
	typed := time.Since(t0)
	lt.queryMs = append(lt.queryMs, millis(typed))
	lt.encodeMs = append(lt.encodeMs, max(0, millis(total-typed)))
	t0 = time.Now()
	ref.Store().PairCtx(ctx, req.q.Key(), req.q.From, req.q.To, funcs{tr: func(*trace.Traceroute) {}})
	lt.pairReadMs = append(lt.pairReadMs, millis(time.Since(t0)))
}
