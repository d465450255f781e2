package serve

import (
	"encoding/hex"

	"repro/internal/lru"
)

// Key identifies one canonical analysis request (SHA-256 of the
// canonical encoding, see canonical.go).
type Key [32]byte

// String returns the hex form served back to clients.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Cache is the result cache: the shared LRU+singleflight cache keyed by
// canonical request keys. Values are immutable once stored (the
// pipeline copies before setting per-delivery fields).
type Cache = lru.Cache[Key, any]

// NewCache builds a result cache holding up to capacity entries. A
// non-positive capacity disables storage (every request computes;
// singleflight still coalesces concurrent duplicates).
func NewCache(capacity int) *Cache { return lru.New[Key, any](capacity) }
