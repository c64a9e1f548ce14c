// Package remote turns the fleet driver into a horizontally scaled study
// service: a coordinator process owns a study (a name-based study.JobSpec
// and a result store), cuts its cell matrix into key-range shards
// (internal/fleet/shard), and serves them over HTTP/JSON; worker processes
// — on the same machine or across a fleet of them — claim shards, verify
// the manifest against their own expansion of the spec, execute only the
// cells the coordinator's store does not already hold, and stream their
// JSONL store fragments back. The transport is stdlib net/http only.
//
// Determinism survives distribution: shards are disjoint key ranges of one
// keyspace, records are keyed by the canonical identity hash, and the
// store flushes sorted by key — so the coordinator's merged cells.jsonl is
// byte-identical to a single-process run of the same spec, however many
// workers executed it, in whatever order their fragments arrived.
package remote

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/shard"
	"mobicore/internal/fleet/store"
	"mobicore/internal/fleet/study"
)

// CoordinatorConfig describes one distributed study.
type CoordinatorConfig struct {
	// Job is the study matrix, in wire form.
	Job study.JobSpec
	// StoreDir is the coordinator's result store. It is opened (and
	// locked) for the coordinator's lifetime; completed shard fragments
	// merge into it and flush after every shard, so a restarted
	// coordinator resumes from whatever finished.
	StoreDir string
	// Shards is how many key-range shards to cut the matrix into —
	// typically a small multiple of the worker count, so a slow worker
	// sheds load to fast ones.
	Shards int
	// LeaseTimeout bounds how long a claimed shard may stay silent before
	// the coordinator offers it to another worker. Zero means a minute.
	LeaseTimeout time.Duration
	// RetryMS is the poll interval handed to workers when every remaining
	// shard is leased out. Zero means 200ms.
	RetryMS int
}

// JobInfo is the GET /v1/job response: everything a worker needs to lower
// the job and verify shard manifests against its own expansion.
type JobInfo struct {
	Job        study.JobSpec `json:"job"`
	SpecHash   string        `json:"spec_hash"`
	Shards     int           `json:"shards"`
	TotalCells int           `json:"total_cells"`
}

// ClaimRequest is the POST /v1/claim body.
type ClaimRequest struct {
	// Worker names the claimant, for status output only.
	Worker string `json:"worker,omitempty"`
}

// ClaimResponse answers a claim: exactly one of Done, Manifest, or RetryMS
// is meaningful. Cached carries the coordinator store's records inside the
// shard's key range, so a worker re-running a shard after a predecessor
// died mid-way executes only the missing cells.
type ClaimResponse struct {
	// Done reports that every shard has completed — the worker can exit.
	Done bool `json:"done,omitempty"`
	// Manifest is the claimed work assignment, nil when nothing is
	// claimable right now.
	Manifest *shard.Manifest `json:"manifest,omitempty"`
	// Cached holds already-stored records within the manifest's range.
	Cached []store.Record `json:"cached,omitempty"`
	// RetryMS asks the worker to poll again after this many milliseconds.
	RetryMS int `json:"retry_ms,omitempty"`
}

// StatusShard is one shard's row in the GET /v1/status response.
type StatusShard struct {
	Index  int    `json:"index"`
	Cells  int    `json:"cells"`
	State  string `json:"state"`
	Worker string `json:"worker,omitempty"`
}

// Status is the GET /v1/status response.
type Status struct {
	SpecHash    string        `json:"spec_hash"`
	TotalCells  int           `json:"total_cells"`
	StoredCells int           `json:"stored_cells"`
	DoneShards  int           `json:"done_shards"`
	Shards      []StatusShard `json:"shards"`
}

type shardPhase int

const (
	shardPending shardPhase = iota
	shardLeased
	shardDone
)

func (p shardPhase) String() string {
	switch p {
	case shardLeased:
		return "leased"
	case shardDone:
		return "done"
	}
	return "pending"
}

type shardState struct {
	phase  shardPhase
	worker string
	expiry time.Time
}

// Coordinator owns a distributed study: the shard plan, the lease table,
// and the result store. It is an http.Handler; serve it however fits
// (http.Server in mobifleetd, httptest in tests).
type Coordinator struct {
	cfg       CoordinatorConfig
	manifests []shard.Manifest
	specHash  string
	total     int

	mu     sync.Mutex
	st     *store.Store
	states []shardState
	closed bool

	doneOnce sync.Once
	doneCh   chan struct{}

	mux *http.ServeMux
}

// NewCoordinator validates the job, plans its shards, opens (and locks)
// the store, and marks any shard the store already fully covers as done —
// a restarted coordinator never re-issues finished work.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("remote: coordinator needs a store directory")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("remote: coordinator needs at least 1 shard, got %d", cfg.Shards)
	}
	spec, err := cfg.Job.FleetSpec()
	if err != nil {
		return nil, err
	}
	manifests, err := spec.ShardPlan(cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = time.Minute
	}
	if cfg.RetryMS <= 0 {
		cfg.RetryMS = 200
	}
	st, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		manifests: manifests,
		specHash:  manifests[0].SpecHash,
		st:        st,
		states:    make([]shardState, len(manifests)),
		doneCh:    make(chan struct{}),
	}
	for _, m := range manifests {
		c.total += m.Cells
	}
	for i, n := range c.storedPerShard() {
		if n == manifests[i].Cells {
			c.states[i].phase = shardDone
		}
	}
	c.checkAllDone()
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("GET /v1/job", c.handleJob)
	c.mux.HandleFunc("POST /v1/claim", c.handleClaim)
	c.mux.HandleFunc("POST /v1/complete", c.handleComplete)
	c.mux.HandleFunc("GET /v1/status", c.handleStatus)
	return c, nil
}

// storedPerShard counts the store's records inside each shard's key
// range. The shards are consecutive ranges of the sorted keyspace, so one
// pass over the sorted keys bins them all.
func (c *Coordinator) storedPerShard() []int {
	counts := make([]int, len(c.manifests))
	i := 0
	for _, key := range c.st.Keys() {
		for i < len(c.manifests) && c.manifests[i].Hi != "" && key >= c.manifests[i].Hi {
			i++
		}
		if i < len(c.manifests) && c.manifests[i].Contains(key) {
			counts[i]++
		}
	}
	return counts
}

// Done is closed once every shard has completed and flushed.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Close compacts and releases the store, so its cells file holds every
// record. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if err := c.st.Compact(); err != nil {
		c.st.Close()
		return err
	}
	return c.st.Close()
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, JobInfo{
		Job:        c.cfg.Job,
		SpecHash:   c.specHash,
		Shards:     len(c.manifests),
		TotalCells: c.total,
	})
}

// handleClaim leases the first claimable shard: pending, or leased past
// its expiry (the previous claimant is presumed dead — shards are
// idempotent, so even a zombie completing later is harmless).
func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		http.Error(w, fmt.Sprintf("remote: bad claim body: %v", err), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	done := 0
	for i := range c.states {
		s := &c.states[i]
		switch {
		case s.phase == shardDone:
			done++
		case s.phase == shardPending, s.phase == shardLeased && now.After(s.expiry):
			m := c.manifests[i]
			resp := ClaimResponse{Manifest: &m}
			for _, key := range c.st.Keys() {
				if !m.Contains(key) {
					continue
				}
				rec, ok := c.st.Get(key)
				if !ok {
					http.Error(w, fmt.Sprintf("remote: reading stored record %s failed", key), http.StatusInternalServerError)
					return
				}
				resp.Cached = append(resp.Cached, rec)
			}
			s.phase = shardLeased
			s.worker = req.Worker
			s.expiry = now.Add(c.cfg.LeaseTimeout)
			writeJSON(w, resp)
			return
		}
	}
	if done == len(c.states) {
		writeJSON(w, ClaimResponse{Done: true})
		return
	}
	writeJSON(w, ClaimResponse{RetryMS: c.cfg.RetryMS})
}

// handleComplete ingests one shard's JSONL store fragment. Every record is
// re-verified — key integrity, range membership, and (via PutChecked)
// consistency with anything already stored — then the store flushes, so a
// coordinator crash after the response never loses acknowledged work.
// Completes are idempotent: a re-run shard re-submits identical bytes.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil || idx < 0 || idx >= len(c.manifests) {
		http.Error(w, fmt.Sprintf("remote: bad shard index %q", r.URL.Query().Get("shard")), http.StatusBadRequest)
		return
	}
	if got := r.URL.Query().Get("spec_hash"); got != c.specHash {
		http.Error(w, fmt.Sprintf("remote: spec hash %q does not match job %q — this fragment was cut from a different spec", got, c.specHash), http.StatusBadRequest)
		return
	}
	m := c.manifests[idx]
	seen := make(map[string]bool, m.Cells)
	var recs []store.Record
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := store.DecodeRecord(line)
		if err != nil {
			http.Error(w, fmt.Sprintf("remote: bad fragment record: %v", err), http.StatusBadRequest)
			return
		}
		if rec.Identity.Key() != rec.Key {
			http.Error(w, fmt.Sprintf("remote: record key %s does not match its identity", rec.Key), http.StatusBadRequest)
			return
		}
		if !m.Contains(rec.Key) {
			http.Error(w, fmt.Sprintf("remote: record %s is outside shard %d's key range", rec.Key, idx), http.StatusBadRequest)
			return
		}
		if seen[rec.Key] {
			http.Error(w, fmt.Sprintf("remote: duplicate record %s in fragment", rec.Key), http.StatusBadRequest)
			return
		}
		seen[rec.Key] = true
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		http.Error(w, fmt.Sprintf("remote: reading fragment: %v", err), http.StatusBadRequest)
		return
	}
	if len(recs) != m.Cells {
		http.Error(w, fmt.Sprintf("remote: fragment holds %d records, shard %d expects %d", len(recs), idx, m.Cells), http.StatusBadRequest)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		http.Error(w, "remote: coordinator is shut down", http.StatusServiceUnavailable)
		return
	}
	for _, rec := range recs {
		if _, err := c.st.PutChecked(rec); err != nil {
			// Two workers produced different results for the same cell:
			// determinism is broken somewhere, and silently picking a
			// winner would corrupt the study. Refuse loudly.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
	}
	// The last shard completes the study: compact, so the cells file holds
	// every record.
	flush := c.st.Flush
	if c.lastPending(idx) {
		flush = c.st.Compact
	}
	if err := flush(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.states[idx].phase = shardDone
	c.states[idx].worker = ""
	c.checkAllDone()
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		SpecHash:    c.specHash,
		TotalCells:  c.total,
		StoredCells: c.st.Len(),
	}
	for i, s := range c.states {
		if s.phase == shardDone {
			st.DoneShards++
		}
		st.Shards = append(st.Shards, StatusShard{
			Index:  i,
			Cells:  c.manifests[i].Cells,
			State:  s.phase.String(),
			Worker: s.worker,
		})
	}
	writeJSON(w, st)
}

// lastPending reports whether every shard but idx is done. Callers hold
// mu.
func (c *Coordinator) lastPending(idx int) bool {
	for i, s := range c.states {
		if i != idx && s.phase != shardDone {
			return false
		}
	}
	return true
}

// checkAllDone closes the done channel once every shard completed. Callers
// hold mu (or, from NewCoordinator, have exclusive access).
func (c *Coordinator) checkAllDone() {
	for _, s := range c.states {
		if s.phase != shardDone {
			return
		}
	}
	c.doneOnce.Do(func() { close(c.doneCh) })
}

// Spec re-exports the lowered fleet spec for callers that want the
// coordinator's view of the matrix (e.g. a serial reference run).
func (c *Coordinator) Spec() (fleet.Spec, error) { return c.cfg.Job.FleetSpec() }
