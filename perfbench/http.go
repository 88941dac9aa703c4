package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"db2rdf"
	"db2rdf/server"
)

// endpoint is db2rdf-server's handler (server.New, writable) on a
// loopback listener. When the run is traced, every request runs inside
// a server.handler span whose request id and parent come from the
// client's headers.
type endpoint struct {
	url  string
	srv  *http.Server
	done chan error
}

const (
	reqHeader  = "X-Perfbench-Req"
	spanHeader = "X-Perfbench-Span"
)

func (r *run) serve(s *db2rdf.Store) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = server.New(server.Config{Store: s, Writable: true})
	if r.trace {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			id, _ := strconv.Atoi(req.Header.Get(reqHeader))
			parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
			sp := r.tr.begin("server.handler", id, parent)
			inner.ServeHTTP(w, req)
			r.tr.end(sp)
		})
	}
	e := &endpoint{url: "http://" + ln.Addr().String() + "/sparql", srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

// stop shuts the server down and waits for Serve to return.
func (e *endpoint) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-e.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// client is one keep-alive connection to the endpoint.
type client struct {
	r   *run
	url string
	tr  *http.Transport
	hc  *http.Client
}

func (r *run) newClient(e *endpoint) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{r: r, url: e.url, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one SPARQL Protocol request and returns the response body.
// In a traced run the round trip is a client.roundtrip span; its self
// time — the round trip minus the server.handler span — is transport.
func (c *client) post(contentType, body string, req int) ([]byte, error) {
	hr, err := http.NewRequest(http.MethodPost, c.url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", contentType)
	hr.Header.Set("Accept", "application/sparql-results+json")
	sp := c.r.tr.begin("client.roundtrip", req, 0)
	if sp != 0 {
		hr.Header.Set(reqHeader, strconv.Itoa(req))
		hr.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		c.r.tr.end(sp)
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

func (c *client) query(q string, req int) ([]byte, error) {
	return c.post("application/sparql-query", q, req)
}

func (c *client) update(u string, req int) ([]byte, error) {
	return c.post("application/sparql-update", u, req)
}
