// Package shard partitions a fleet matrix into disjoint key-range shards
// so a study can scale across processes and machines. The unit of
// partitioning is the cell's canonical identity key (store.Identity.Key):
// keys are uniformly distributed SHA-256 prefixes, so contiguous ranges of
// the sorted key set balance within one cell of each other, and the
// partition is a pure function of the cell set — every participant that
// expands the same spec computes the same plan.
//
// A Manifest names one shard: the spec hash (a digest of the full key
// set), the shard's position in the plan, and its half-open key range. A
// worker handed a manifest re-expands the spec locally and calls Verify
// before running anything: a hash mismatch means coordinator and worker
// disagree about what the study is, and refusing to run is the only safe
// answer. Because shards are key ranges of one shared keyspace, the
// per-shard result stores are disjoint by construction and their merge is
// order-independent — the sorted-flush store format makes the merged
// cells.jsonl byte-identical to a single-process run.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
)

// Manifest describes one shard of a study matrix: which spec it belongs
// to, where it sits in the plan, and exactly which cells it owns.
type Manifest struct {
	// SpecHash digests the full sorted key set of the matrix; equal hashes
	// mean equal cell sets, whatever order the keys were produced in.
	SpecHash string `json:"spec_hash"`
	// Index and Count position the shard: index i of count n, 0 ≤ i < n.
	Index int `json:"index"`
	Count int `json:"count"`
	// Lo is the shard's inclusive lower key bound; empty on shard 0 so the
	// first range covers everything below the first key.
	Lo string `json:"lo"`
	// Hi is the shard's exclusive upper key bound; empty on the last shard
	// so the final range covers everything from Lo up.
	Hi string `json:"hi,omitempty"`
	// Cells is the number of matrix keys inside the range — the exact
	// record count a completed shard must deliver.
	Cells int `json:"cells"`
}

// SpecHash digests a cell key set: the first 16 bytes of the SHA-256 over
// the sorted keys, hex-encoded. Order-independent — the hash names the
// set, not the spec's nesting order.
func SpecHash(keys []string) string {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	return sortedHash(sorted)
}

// sortedHash is SpecHash of keys already in sorted order.
func sortedHash(sorted []string) string {
	h := sha256.New()
	for _, k := range sorted {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Plan partitions the key set into count contiguous shards of the sorted
// keyspace, sized within one cell of each other. Keys must be unique —
// duplicate identities in one matrix would double-run a cell — and count
// must fit the key set (an empty shard has nothing to verify or run).
func Plan(keys []string, count int) ([]Manifest, error) {
	if count < 1 {
		return nil, fmt.Errorf("shard: count %d, want at least 1", count)
	}
	if count > len(keys) {
		return nil, fmt.Errorf("shard: %d shards over %d cells would leave empty shards", count, len(keys))
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("shard: duplicate cell key %s", sorted[i])
		}
	}
	hash := sortedHash(sorted)
	base, rem := len(sorted)/count, len(sorted)%count
	plan := make([]Manifest, count)
	at := 0
	for i := range plan {
		size := base
		if i < rem {
			size++
		}
		m := Manifest{SpecHash: hash, Index: i, Count: count, Cells: size}
		if i > 0 {
			m.Lo = sorted[at]
		}
		if at+size < len(sorted) {
			m.Hi = sorted[at+size]
		}
		plan[i] = m
		at += size
	}
	return plan, nil
}

// Contains reports whether the key falls inside the shard's half-open
// range [Lo, Hi).
func (m Manifest) Contains(key string) bool {
	return key >= m.Lo && (m.Hi == "" || key < m.Hi)
}

// Verify checks the manifest against a locally expanded key set — the
// worker-side proof it was handed the right work. It fails when the spec
// hash disagrees (coordinator and worker expanded different matrices),
// when the shard's position is malformed, or when the range covers a
// different number of cells than the manifest claims.
func (m Manifest) Verify(keys []string) error {
	if m.Count < 1 || m.Index < 0 || m.Index >= m.Count {
		return fmt.Errorf("shard: malformed manifest index %d of %d", m.Index, m.Count)
	}
	if m.Hi != "" && m.Lo >= m.Hi {
		return errors.New("shard: malformed manifest: lo bound at or above hi bound")
	}
	if got := SpecHash(keys); got != m.SpecHash {
		return fmt.Errorf("shard: spec hash mismatch: manifest %s, local matrix %s — the shard was cut from a different spec", m.SpecHash, got)
	}
	in := 0
	for _, k := range keys {
		if m.Contains(k) {
			in++
		}
	}
	if in != m.Cells {
		return fmt.Errorf("shard: range holds %d of the matrix's cells, manifest claims %d", in, m.Cells)
	}
	return nil
}
