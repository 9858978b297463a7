package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// reqHeader carries the benchmark's request id on traced requests. The
// router forwards end-to-end headers, so the backend middleware sees
// the same id and attributes its span to the same request.
const reqHeader = "X-Welbench-Req"

// client is one closed-loop caller: it owns a single keep-alive
// connection and waits for each request's terminal frame before sending
// the next.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends a JSON body and decodes a 2xx JSON answer into out.
func (c *client) post(path, traceID string, body, out any) error {
	return c.do(http.MethodPost, path, traceID, body, out)
}

func (c *client) get(path string, out any) error {
	return c.do(http.MethodGet, path, "", nil, out)
}

func (c *client) delete(path string) error {
	return c.do(http.MethodDelete, path, "", nil, nil)
}

func (c *client) do(method, path, traceID string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if traceID != "" {
		req.Header.Set(reqHeader, traceID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{method: method, path: path, code: resp.StatusCode, body: strings.TrimSpace(string(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// statusError is a non-2xx answer: a refusal (4xx) or a server error
// (5xx). Either fails the request.
type statusError struct {
	method, path string
	code         int
	body         string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: %d %s", e.method, e.path, e.code, e.body)
}

// awaitTerminal opens an SSE stream and returns the name of its first
// terminal event ("done", "failed", "canceled") and the instant it
// arrived, then drains the stream to EOF so the connection is reused.
func (c *client) awaitTerminal(path, traceID string) (string, time.Time, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", time.Time{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if traceID != "" {
		req.Header.Set(reqHeader, traceID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return "", time.Time{}, &statusError{method: http.MethodGet, path: path, code: resp.StatusCode, body: string(data)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok || name == "progress" {
			continue
		}
		at := time.Now()
		_, _ = io.Copy(io.Discard, resp.Body) // the stream ends after its terminal frame
		return name, at, nil
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	return "", time.Time{}, fmt.Errorf("GET %s: stream ended without a terminal event", path)
}
