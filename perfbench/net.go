package main

// net.go — loopback HTTP plumbing: listeners for in-process servers, the
// shared client, and the handler/store wrappers the traced run uses to
// time each layer from the outside.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loops"
	"repro/internal/refstream"
	"repro/internal/serve"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return l, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.srv.Shutdown(ctx) // a timeout still closes the listener
	<-l.done
}

// newClient returns a pooled loopback client sized for open-loop bursts.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}}
}

// post sends body to url with request ID id (empty for none) and returns
// the status and response body.
func post(ctx context.Context, c *http.Client, url, id string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// postOK is post that treats any status but 200 as an error.
func postOK(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	code, out, err := post(ctx, c, url, "", body)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d: %s", url, code, out)
	}
	return out, err
}

// spanLog collects per-request handler times keyed by X-Request-ID.
// A nil *spanLog records nothing, which is how untraced runs use it.
type spanLog struct {
	mu sync.Mutex
	by map[string]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{by: map[string]time.Duration{}} }

// wrap times h per request. When one request ID reaches h more than
// once (a router fanning out), the longest visit is kept: sub-requests
// run concurrently, so the longest one is on the critical path.
func (s *spanLog) wrap(h http.Handler) http.Handler {
	if s == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			return
		}
		s.mu.Lock()
		if d > s.by[id] {
			s.by[id] = d
		}
		s.mu.Unlock()
	})
}

func (s *spanLog) get(id string) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.by[id]
	return d, ok
}

// reqIDs hands out benchmark request IDs.
type reqIDs struct{ n atomic.Int64 }

func (r *reqIDs) next() string { return "pb-" + strconv.FormatInt(r.n.Add(1), 10) }

// timedStore wraps the capture store to time each Load.
type timedStore struct {
	inner serve.CaptureStore
	mu    sync.Mutex
	loads []float64 // microseconds
}

func (t *timedStore) Load(k *loops.Kernel, n int) (*refstream.Stream, bool) {
	start := time.Now()
	st, ok := t.inner.Load(k, n)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.loads = append(t.loads, us)
	t.mu.Unlock()
	return st, ok
}

func (t *timedStore) Save(st *refstream.Stream) { t.inner.Save(st) }
