package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/serve"
)

// This file is the fleet's durability layer: a write-ahead shard
// journal under Options.CheckpointDir. Each accepted shard result is
// appended as one checksummed JSONL record and fsync'd *before* the
// shard is counted done, so a coordinator killed mid-sweep loses at
// most the shards that had not yet been accepted. On restart, a sweep
// over the same request replays the journal, restores the completed
// shards from disk, truncates any corrupt tail, and dispatches only
// the remainder — the merged result is identical to an uninterrupted
// run (proven by the chaos harness in chaoskill_test.go).
//
// Record format, one per line:
//
//	<crc32-ieee-hex8> <payload-json>\n
//
// The checksum covers the payload bytes exactly as written. A record
// whose line is incomplete, whose checksum mismatches, or whose JSON
// does not decode ends the valid prefix: everything from there on is
// discarded and the file is truncated back to the last good record, so
// the journal is always left replayable and a corrupt shard is never
// resurrected. Journal files are keyed by the sweep's canonical
// request hash, and every record carries both that sweep hash and a
// per-shard request hash — a record only replays into the shard whose
// scoped request it was written for, so a changed partition (different
// host count, different grids) silently invalidates stale records
// instead of merging the wrong slice of the space.

// Journal record kinds.
const (
	journalKindDSE    = "dse"
	journalKindFusion = "fusion"
)

// journalRecord is one durably-accepted shard result.
type journalRecord struct {
	// Kind is journalKindDSE or journalKindFusion.
	Kind string `json:"kind"`
	// Sweep is the canonical hash of the whole sweep's request.
	Sweep string `json:"sweep"`
	// Shard/Of label the shard within its partition.
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// Hash is the canonical hash of the shard's scoped request; replay
	// matches on it, not on the index alone.
	Hash string `json:"hash"`
	// Host is the node that produced the accepted result.
	Host string `json:"host"`
	// Stolen records whether a watchdog-stolen attempt won.
	Stolen bool `json:"stolen,omitempty"`

	// Exactly one of the payloads is set, matching Kind.
	DSE    *serve.DSEResponse    `json:"dse,omitempty"`
	Fusion *serve.FusionResponse `json:"fusion,omitempty"`
}

// valid reports whether a decoded record is structurally sound: a
// known kind, a shard-request hash to replay by, and exactly the
// payload its kind promises.
func (r *journalRecord) valid() bool {
	if r.Hash == "" || r.Sweep == "" || r.Of <= 0 || r.Shard < 0 || r.Shard >= r.Of {
		return false
	}
	switch r.Kind {
	case journalKindDSE:
		return r.DSE != nil && r.Fusion == nil
	case journalKindFusion:
		return r.Fusion != nil && r.DSE == nil
	}
	return false
}

// encodeRecord renders one journal line: checksum, space, payload,
// newline.
func encodeRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = append(line, fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))...)
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// parseJournal walks data record by record and returns the records of
// the longest valid prefix plus that prefix's byte length. It never
// panics on arbitrary input; the first incomplete, checksum-failing,
// or undecodable line ends the prefix.
func parseJournal(data []byte) ([]journalRecord, int) {
	var recs []journalRecord
	good := 0
	for good < len(data) {
		rest := data[good:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // partial tail record: a crash mid-append
		}
		line := rest[:nl]
		// "<crc8hex> <payload>" needs at least 10 bytes.
		if len(line) < 10 || line[8] != ' ' {
			break
		}
		want, err := strconv.ParseUint(string(line[:8]), 16, 32)
		if err != nil {
			break
		}
		payload := line[9:]
		if crc32.ChecksumIEEE(payload) != uint32(want) {
			break
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil || !rec.valid() {
			break
		}
		recs = append(recs, rec)
		good += nl + 1
	}
	return recs, good
}

// journal is one sweep's open write-ahead file. Safe for concurrent
// append from the request goroutines.
type journal struct {
	path  string
	kind  string
	sweep string

	mu   sync.Mutex
	f    *os.File
	recs map[string]journalRecord // valid prefix at open time, by shard hash
}

// openJournal opens (creating if needed) the journal for one sweep.
// With resume, the existing file's valid prefix is loaded and any
// corrupt tail truncated away; without it, a pre-existing file is
// discarded so the sweep starts clean.
func openJournal(dir, kind, sweep string, resume bool) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, kind+"-"+sweep+".jnl")
	j := &journal{path: path, kind: kind, sweep: sweep, recs: map[string]journalRecord{}}
	if !resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("fleet: clearing journal %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: opening journal %s: %w", path, err)
	}
	j.f = f
	if resume {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: reading journal %s: %w", path, err)
		}
		recs, good := parseJournal(data)
		if good < len(data) {
			// Corrupt or partial tail: truncate it away so the next
			// append lands on a record boundary.
			if err := f.Truncate(int64(good)); err != nil {
				f.Close()
				return nil, fmt.Errorf("fleet: truncating journal %s: %w", path, err)
			}
		}
		if _, err := f.Seek(int64(good), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: seeking journal %s: %w", path, err)
		}
		for _, rec := range recs {
			// Records from another sweep or kind never replay; the file
			// name keys them apart already, so a mismatch here means the
			// file was moved or hand-edited. Skip, don't trust.
			if rec.Kind == kind && rec.Sweep == sweep {
				j.recs[rec.Hash] = rec
			}
		}
	}
	return j, nil
}

// lookup returns the journaled record for one shard-request hash.
func (j *journal) lookup(hash string) (journalRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[hash]
	return rec, ok
}

// replayed reports how many records loaded at open time.
func (j *journal) replayed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// append writes one record and fsyncs it to disk. It returns only
// after the record is durable — callers mark the shard done strictly
// after a nil return.
func (j *journal) append(rec journalRecord) error {
	rec.Kind, rec.Sweep = j.kind, j.sweep
	line, err := encodeRecord(rec)
	if err != nil {
		return fmt.Errorf("fleet: encoding journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("fleet: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("fleet: appending to journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fleet: fsync journal %s: %w", j.path, err)
	}
	return nil
}

// close releases the file, keeping it on disk for a later resume.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// finish closes and deletes the journal — the sweep completed, so
// there is nothing left to resume.
func (j *journal) finish() {
	j.close()
	os.Remove(j.path)
}

// canonicalHash hashes one request's canonical JSON encoding under a
// kind prefix. Go's encoding/json renders struct fields in declaration
// order, so the encoding — and the hash — is deterministic across
// processes and restarts.
func canonicalHash(kind string, v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{'|'})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// sweepHashDSE keys a DSE sweep's journal: the request with defaults
// filled and the PE and P1 axes sorted and deduplicated (as Fleet.plan
// partitions it), the delivery-only knobs (timeout, cache bypass,
// response truncation) and any stray shard descriptor zeroed, so
// retries of the same sweep resolve to the same file.
func sweepHashDSE(req serve.DSERequest) (string, error) {
	req = req.WithDefaults()
	req.PEs = sortedDedup(req.PEs)
	req.P1 = sortedDedup(req.P1)
	req.Shard = nil
	req.TopK = 0
	req.TimeoutMs = 0
	req.NoCache = false
	return canonicalHash(journalKindDSE, req)
}

// sweepHashFusion keys a fusion sweep's journal the same way.
func sweepHashFusion(req serve.FusionRequest) (string, error) {
	req.Shard = nil
	req.TimeoutMs = 0
	req.NoCache = false
	return canonicalHash(journalKindFusion, req)
}
