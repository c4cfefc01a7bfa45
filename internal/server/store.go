package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pride/internal/faultinject"
)

// jobID derives the stable job identifier from a campaign cache key: the
// first 16 hex digits of its SHA-256. The ID doubles as the result and
// checkpoint filename, which is what makes submission idempotent across
// daemon restarts — the same spec always lands on the same files.
func jobID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// jobSeed derives the deterministic jitter seed of a job from its key, so
// backoff jitter is reproducible run-to-run without any shared RNG state.
func jobSeed(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	var s uint64
	for i := 0; i < 8; i++ {
		s = s<<8 | uint64(sum[i])
	}
	return s
}

// resultEnvelope is the on-disk form of one completed job: the full cache
// key (collision guard — the filename only holds a truncated hash), the
// campaign key when it differs from the cache key, the spec kind, and the
// campaign's JSON result.
type resultEnvelope struct {
	Key string `json:"key"`
	// CampaignKey is the checkpoint key of the campaign that produced the
	// result, stored when the job is filed under another key: a generated
	// replay job is filed under its spec, and this is the spec's alias to
	// the stream it ran. Empty means Key is the campaign key.
	CampaignKey string          `json:"campaign_key,omitempty"`
	Kind        string          `json:"kind"`
	Result      json.RawMessage `json:"result"`
}

// campaignKey is the key a job served from the envelope reports.
func (e resultEnvelope) campaignKey() string {
	if e.CampaignKey != "" {
		return e.CampaignKey
	}
	return e.Key
}

// resultStore persists completed job results under dir, one JSON file per
// cache key, written atomically (tmp + rename). Writes consult the
// job.result-write fault site and absorb transient failures with a bounded
// backoff, mirroring the checkpoint writer's durability contract.
type resultStore struct {
	dir    string
	faults *faultinject.Injector

	retries int
	backoff time.Duration
}

func newResultStore(dir string, faults *faultinject.Injector) (*resultStore, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &resultStore{dir: dir, faults: faults, retries: 3, backoff: time.Millisecond}, nil
}

func (s *resultStore) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

// Get returns the stored envelope for the given key, reporting whether one
// exists. A file whose embedded key differs (a truncated-hash collision, or
// a corrupted file) is an error, never a silent wrong-result cache hit.
func (s *resultStore) Get(key string) (resultEnvelope, bool, error) {
	data, err := os.ReadFile(s.path(jobID(key)))
	if os.IsNotExist(err) {
		return resultEnvelope{}, false, nil
	}
	if err != nil {
		return resultEnvelope{}, false, err
	}
	var env resultEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return resultEnvelope{}, false, fmt.Errorf("server: result %s: %v", jobID(key), err)
	}
	if env.Key != key {
		return resultEnvelope{}, false, fmt.Errorf("server: result %s holds key %q, want %q", jobID(key), env.Key, key)
	}
	return env, true, nil
}

// GetByID returns the stored envelope by job ID, for status queries about
// jobs completed in a previous daemon life (the key is inside the file).
func (s *resultStore) GetByID(id string) (resultEnvelope, bool, error) {
	data, err := os.ReadFile(s.path(id))
	if os.IsNotExist(err) {
		return resultEnvelope{}, false, nil
	}
	if err != nil {
		return resultEnvelope{}, false, err
	}
	var env resultEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return resultEnvelope{}, false, fmt.Errorf("server: result %s: %v", id, err)
	}
	return env, true, nil
}

// Put persists a completed result under key, with the campaign key that
// produced it. Each attempt first consults the job.result-write fault site;
// a failed write (injected or real) retries with doubling backoff until the
// budget is spent.
func (s *resultStore) Put(key, campaignKey, kind string, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("server: encoding result: %v", err)
	}
	env := resultEnvelope{Key: key, Kind: kind, Result: raw}
	if campaignKey != key {
		env.CampaignKey = campaignKey
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("server: encoding result: %v", err)
	}
	var lastErr error
	for attempt := 0; attempt <= s.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(s.backoff << (attempt - 1))
		}
		if lastErr = s.writeOnce(jobID(key), data); lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("server: result write failed after %d attempt(s): %w", s.retries+1, lastErr)
}

func (s *resultStore) writeOnce(id string, data []byte) error {
	if s.faults != nil {
		if err := s.faults.Err(faultinject.SiteJobResultWrite); err != nil {
			return err
		}
	}
	tmp := s.path(id) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
		return err
	}
	return os.Rename(tmp, s.path(id))
}
