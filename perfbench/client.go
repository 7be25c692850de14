package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/ralab/are/internal/server"
)

// client talks to one ared base URL the way an external caller would.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256, IdleConnTimeout: time.Minute}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// jobTimes are the client-side boundaries of one job, all taken from
// the client's clock.
type jobTimes struct {
	submit   time.Time // POST sent
	accepted time.Time // 202 read
	running  time.Time // first SSE frame in state running (zero if never seen)
	terminal time.Time // terminal SSE frame read
	resultAt time.Time // last result byte read
}

// outcome is one job's end state as the client saw it.
type outcome struct {
	times  jobTimes
	status int // submission's HTTP status
	result []byte
	err    error
}

// run submits body, waits on the job's event stream (never by polling
// /result) and fetches the result.
func (c *client) run(body []byte, apiKey string) outcome {
	var o outcome
	o.times.submit = time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.times.accepted = time.Now()
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.status = resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		o.err = fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return o
	}
	var st server.Status
	if err := json.Unmarshal(data, &st); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	final, err := c.await(st.ID, apiKey, &o.times)
	if err != nil {
		o.err = err
		return o
	}
	if final.State != string(server.JobDone) {
		o.err = fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
		return o
	}
	o.result, err = c.get("/v1/jobs/"+st.ID+"/result", apiKey)
	o.times.resultAt = time.Now()
	if err != nil {
		o.err = fmt.Errorf("result: %w", err)
	}
	return o
}

// await reads the job's SSE stream until its terminal frame.
func (c *client) await(id, apiKey string, t *jobTimes) (server.Status, error) {
	var st server.Status
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return st, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		now := time.Now()
		if t.running.IsZero() && !bytes.Contains(line, []byte(`"state":"queued"`)) {
			// The first frame past queued: running, or already
			// terminal when the job finished before the stream opened.
			t.running = now
		}
		switch {
		case bytes.Contains(line, []byte(`"state":"done"`)),
			bytes.Contains(line, []byte(`"state":"failed"`)),
			bytes.Contains(line, []byte(`"state":"cancelled"`)):
			t.terminal = now
			err := json.Unmarshal(line, &st)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("events: %w", err)
	}
	return st, fmt.Errorf("events: stream for %s ended without a terminal frame", id)
}

func (c *client) get(path, apiKey string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// scrape reads the unlabelled samples of a server's /metrics page.
func scrape(c *client) (map[string]float64, error) {
	body, err := c.get("/metrics", "")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		f := bytes.Fields(line)
		if len(f) != 2 || f[0][0] == '#' || bytes.ContainsRune(f[0], '{') {
			continue
		}
		if v, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
			out[string(f[0])] = v
		}
	}
	return out, nil
}
