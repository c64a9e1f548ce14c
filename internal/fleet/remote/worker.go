package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/shard"
	"mobicore/internal/fleet/store"
)

// Client speaks the coordinator's HTTP/JSON protocol. The zero HTTP
// client is replaced with http.DefaultClient.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://127.0.0.1:7077".
	Base string
	// HTTP overrides the transport when non-nil.
	HTTP *http.Client
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// transientError marks a failure worth retrying: the request never got an
// answer (the coordinator is not listening yet, or is restarting) or the
// answer was a 5xx.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// retry runs try until it succeeds or fails with an error that is not a
// transientError, backing off exponentially from 100 ms between attempts
// and giving up after five. what names the request in the final error.
func retry(ctx context.Context, what string, try func() error) error {
	backoff := 100 * time.Millisecond
	const attempts = 5
	for attempt := 1; ; attempt++ {
		err := try()
		var transient transientError
		if !errors.As(err, &transient) {
			return err
		}
		if attempt == attempts {
			return fmt.Errorf("remote: %s failed after %d attempts: %w", what, attempts, transient.err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// do sends req and returns the response of a 200 answer, whose body the
// caller closes. A connection error or 5xx answer is a transientError; any
// other status fails with the body's first 4 KiB, prefixed by what.
func (c *Client) do(req *http.Request, what string) (*http.Response, error) {
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, transientError{err}
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	err = fmt.Errorf("remote: %s: %s: %s", what, resp.Status, bytes.TrimSpace(msg))
	if resp.StatusCode >= 500 {
		return nil, transientError{err}
	}
	return nil, err
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req, "GET "+path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Job fetches the study description. Transient failures retry like
// Complete's, so a worker may start before its coordinator listens.
func (c *Client) Job(ctx context.Context) (JobInfo, error) {
	var info JobInfo
	err := retry(ctx, "GET /v1/job", func() error {
		return c.getJSON(ctx, "/v1/job", &info)
	})
	return info, err
}

// Status fetches the shard table.
func (c *Client) Status(ctx context.Context) (Status, error) {
	var st Status
	err := c.getJSON(ctx, "/v1/status", &st)
	return st, err
}

// Claim asks for a work assignment. Transient failures retry like
// Complete's.
func (c *Client) Claim(ctx context.Context, worker string) (ClaimResponse, error) {
	body, err := json.Marshal(ClaimRequest{Worker: worker})
	if err != nil {
		return ClaimResponse{}, err
	}
	var cr ClaimResponse
	err = retry(ctx, "claim", func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/claim", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.do(req, "claim")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(&cr)
	})
	return cr, err
}

// Complete submits one shard's JSONL store fragment. Transient failures —
// connection errors and 5xx responses — retry with exponential backoff;
// 4xx responses are protocol errors and fail immediately.
func (c *Client) Complete(ctx context.Context, m *shard.Manifest, fragment []byte) error {
	url := fmt.Sprintf("%s/v1/complete?shard=%d&spec_hash=%s", c.Base, m.Index, m.SpecHash)
	what := fmt.Sprintf("complete shard %d", m.Index)
	return retry(ctx, what, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(fragment))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := c.do(req, what)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.Body.Close()
	})
}

// WorkerConfig configures one worker process (or goroutine).
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Dir is scratch space for per-shard fragment stores.
	Dir string
	// Parallel is the in-process fan-out per shard (fleet.Spec.Parallel).
	Parallel int
	// Name labels this worker in coordinator status output.
	Name string
	// HTTP overrides the transport when non-nil (tests).
	HTTP *http.Client
}

// WorkerStats summarizes one worker's share of a study.
type WorkerStats struct {
	// Shards completed by this worker.
	Shards int
	// Cells executed here and Cached answered from coordinator state.
	Cells  int
	Cached int
}

// RunWorker claims and executes shards until the coordinator reports the
// study done (or ctx cancels). Each shard runs in its own fragment store
// under cfg.Dir, seeded with the coordinator's cached records so partially
// complete shards resume instead of re-executing; the fragment then
// streams back with retry. The worker verifies every manifest against its
// own expansion of the job spec before running a single cell. Fetching the
// job and claiming shards retry transient failures too, so a worker may
// start before its coordinator listens, or ride out a short restart.
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerStats, error) {
	var stats WorkerStats
	if cfg.Dir == "" {
		return stats, fmt.Errorf("remote: worker needs a scratch dir")
	}
	cl := &Client{Base: cfg.Coordinator, HTTP: cfg.HTTP}
	info, err := cl.Job(ctx)
	if err != nil {
		return stats, err
	}
	spec, err := info.Job.FleetSpec()
	if err != nil {
		return stats, err
	}
	keys, err := spec.Keys()
	if err != nil {
		return stats, err
	}
	sort.Strings(keys)
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		claim, err := cl.Claim(ctx, cfg.Name)
		if err != nil {
			return stats, err
		}
		if claim.Done {
			return stats, nil
		}
		if claim.Manifest == nil {
			select {
			case <-ctx.Done():
				return stats, ctx.Err()
			case <-time.After(retryWait(claim.RetryMS)):
			}
			continue
		}
		if err := checkClaim(claim, keys); err != nil {
			return stats, err
		}
		res, fragment, err := runShard(ctx, spec, cfg, claim)
		if err != nil {
			return stats, err
		}
		if err := cl.Complete(ctx, claim.Manifest, fragment); err != nil {
			return stats, err
		}
		stats.Shards++
		stats.Cells += len(res.Cells)
		stats.Cached += res.Cached
	}
}

// maxRetryWait caps the poll interval a coordinator may ask for: a wait
// past one default lease (a minute) only delays the study.
const maxRetryWait = time.Minute

// retryWait is the worker's poll interval for a claim's RetryMS: 200 ms
// when the coordinator names none, and never more than maxRetryWait.
func retryWait(ms int) time.Duration {
	if ms <= 0 {
		return 200 * time.Millisecond
	}
	if ms >= int(maxRetryWait/time.Millisecond) {
		return maxRetryWait
	}
	return time.Duration(ms) * time.Millisecond
}

// checkClaim proves a claimed assignment before the worker stores or runs
// any of it. The manifest must be exactly the shard the worker's own plan
// of the job cuts at that index and count (the coordinator plans with the
// same shard.Plan), and every cached record must carry its own identity's
// key and be one of the manifest's cells. keys is the job's cell keys,
// sorted. A claim that fails here would otherwise run the whole shard only
// for the coordinator to refuse the upload.
func checkClaim(claim ClaimResponse, keys []string) error {
	m := claim.Manifest
	plan, err := shard.Plan(keys, m.Count)
	if err != nil {
		return fmt.Errorf("remote: claimed manifest: %w", err)
	}
	if m.Index < 0 || m.Index >= len(plan) || *m != plan[m.Index] {
		return fmt.Errorf("remote: claimed manifest %+v is not shard %d of this job's %d-shard plan", *m, m.Index, m.Count)
	}
	for _, rec := range claim.Cached {
		if rec.Identity.Key() != rec.Key {
			return fmt.Errorf("remote: cached record key %s does not match its identity", rec.Key)
		}
		i := sort.SearchStrings(keys, rec.Key)
		if i == len(keys) || keys[i] != rec.Key || !m.Contains(rec.Key) {
			return fmt.Errorf("remote: cached record %s is not a cell of shard %d", rec.Key, m.Index)
		}
	}
	return nil
}

// compact rewrites the cells file of the store in dir.
func compact(dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	if err := st.Compact(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// runShard executes one claimed shard in a fresh fragment store and
// returns the store's JSONL bytes. Cached records from the coordinator
// seed the store first, so fleet.Run's resume path skips them. The claim
// must have passed checkClaim.
func runShard(ctx context.Context, spec fleet.Spec, cfg WorkerConfig, claim ClaimResponse) (*fleet.Result, []byte, error) {
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d", claim.Manifest.Index))
	if len(claim.Cached) > 0 {
		st, err := store.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		for _, rec := range claim.Cached {
			if _, err := st.PutChecked(rec); err != nil {
				st.Close()
				return nil, nil, err
			}
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return nil, nil, err
		}
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
	}
	run := spec
	run.Shard = claim.Manifest
	run.StoreDir = dir
	run.Resume = true
	run.Parallel = cfg.Parallel
	res, err := fleet.Run(ctx, run)
	if err != nil {
		return nil, nil, err
	}
	// The fragment is the cells file, which holds the records the log
	// holds only after a rewrite.
	if err := compact(dir); err != nil {
		return nil, nil, err
	}
	fragment, err := os.ReadFile(filepath.Join(dir, store.CellsFile))
	if err != nil {
		return nil, nil, err
	}
	return res, fragment, nil
}
