package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"peak/internal/fault"
	"peak/internal/serve"
	"peak/internal/store"
)

// The load: a closed loop of serveClients clients, each with one
// connection, each submitting its next request only once the previous job
// is done — a tuning client waits for its result.
const (
	serveClients = 2
	pollEvery    = 2 * time.Millisecond
	jobTimeout   = 120 * time.Second
)

// node is one booted server in peak-serve's default production
// configuration (-workers 1 -jobs 2 -queue 16 -cache-dir DIR/store
// -journal DIR/journal.jsonl) behind a loopback listener.
type node struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	journal *fault.Journal
	base    string
	// setup runs from store.Open to the first /healthz answer; storeOpen
	// is the store.Open part of it.
	setup, storeOpen time.Duration
}

func bootNode(dir string) (*node, error) {
	t0 := time.Now()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	storeOpen := time.Since(t0)
	jpath := filepath.Join(dir, "journal.jsonl")
	j, err := openJournal(jpath)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Workers: 1, Jobs: 2, Queue: 16, Journal: j, JournalPath: jpath, Store: st})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		j.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{
		srv: srv, journal: j, served: make(chan struct{}), storeOpen: storeOpen,
		base: "http://" + ln.Addr().String(),
		hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second,
			WriteTimeout: 30 * time.Second, IdleTimeout: 120 * time.Second},
	}
	go func() {
		defer close(n.served)
		n.hs.Serve(ln)
	}()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 10 * time.Second}).Get(n.base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	if err != nil {
		n.stop()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	n.setup = time.Since(t0)
	return n, nil
}

// openJournal opens the journal at path as peak-serve -journal does:
// recovering an existing file, creating a missing one.
func openJournal(path string) (*fault.Journal, error) {
	if _, err := os.Stat(path); err == nil {
		return fault.OpenJournal(path)
	}
	return fault.NewJournal(path)
}

// stop closes the listener, drains the server (which flushes the store)
// and closes the journal.
func (n *node) stop() error {
	n.hs.Close()
	<-n.served
	n.srv.Drain()
	if st := n.srv.Stats().Store; st != nil && st.FlushError != "" {
		n.journal.Close()
		return fmt.Errorf("store flush: %s", st.FlushError)
	}
	return n.journal.Close()
}

// outcome is one request as its client saw it.
type outcome struct {
	spec spec
	ok   bool
	// dup marks a request answered 200 at submission: the spec was already
	// known (here: restored from the store) and no job ran.
	dup bool
	// latency runs from the POST to the poll that sees "done"; admit is the
	// POST round trip; queue runs from the 202 to the first poll that sees
	// the job past "queued" (-1 if no poll did).
	latency, admit, queue time.Duration
	polls                 int
	problem               string
}

// jobView is the part of a job snapshot the client reads.
type jobView struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Report  string `json:"report"`
	Metrics string `json:"metrics"`
	Error   string `json:"error"`
}

// runLoad drives specs through the server at base from serveClients
// closed-loop clients and returns each request's outcome (in specs order)
// with the load's wall time, first submission to last completion.
func runLoad(base string, specs []spec, want map[string]string) ([]outcome, time.Duration) {
	outs := make([]outcome, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				outs[i] = submit(hc, base, specs[i], want)
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(t0)
}

// submit POSTs one request, polls its job until it ends and checks the
// finished report and metrics against the golden digest.
func submit(hc *http.Client, base string, sp spec, want map[string]string) outcome {
	o := outcome{spec: sp, queue: -1}
	body, err := json.Marshal(sp.Req)
	if err != nil {
		o.problem = err.Error()
		return o
	}
	var v jobView
	t0 := time.Now()
	code, err := call(hc, http.MethodPost, base+"/tune", body, &v)
	o.admit = time.Since(t0)
	switch {
	case err != nil:
		o.problem = err.Error()
		return o
	case code == http.StatusOK:
		o.dup = true
	case code != http.StatusAccepted:
		o.problem = fmt.Sprintf("POST /tune: status %d: %s", code, v.Error)
		return o
	}
	accepted := time.Now()
	for v.State == serve.StateQueued || v.State == serve.StateRunning {
		if time.Since(t0) > jobTimeout {
			o.problem = fmt.Sprintf("job %s still %s after %s", v.ID, v.State, jobTimeout)
			return o
		}
		time.Sleep(pollEvery)
		id := v.ID
		code, err = call(hc, http.MethodGet, base+"/jobs/"+id, nil, &v)
		o.polls++
		if err != nil || code != http.StatusOK {
			o.problem = fmt.Sprintf("GET /jobs/%s: status %d: %v", id, code, err)
			return o
		}
		if o.queue < 0 && v.State != serve.StateQueued {
			o.queue = time.Since(accepted)
		}
	}
	o.latency = time.Since(t0)
	if v.State != serve.StateDone {
		o.problem = fmt.Sprintf("job %s ended %s: %s", v.ID, v.State, v.Error)
		return o
	}
	o.problem = checkDigest(want, sp.Key, digest(v.Report, v.Metrics))
	o.ok = o.problem == ""
	return o
}

// checkDigest returns "" when got is key's golden digest, else the problem.
func checkDigest(want map[string]string, key, got string) string {
	w, ok := want[key]
	switch {
	case !ok:
		return "no golden digest"
	case got != w:
		return fmt.Sprintf("digest %s, golden %s", got[:12], w[:12])
	}
	return ""
}

// call sends one request and decodes the JSON job snapshot it answers.
func call(hc *http.Client, method, url string, body []byte, v *jobView) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	*v = jobView{}
	if err := json.Unmarshal(data, v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
