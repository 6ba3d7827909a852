package engine

import "container/list"

// solutionCache is the engine's content-hash-keyed solution cache: a
// size-bounded LRU. The batch engine originally used a plain map, which is
// fine for a short-lived benchmark process but grows without bound under
// the unbounded request stream of a long-running service (pipserve): every
// distinct (module, configuration) pair would stay resident forever. The
// LRU bounds resident solutions while keeping the hot set — repeated
// queries over the same modules — cached.
//
// The cache is not internally synchronized; the engine calls it under its
// own mutex.
type solutionCache struct {
	// max bounds the number of resident entries; <= 0 means unbounded
	// (the original map behaviour, still right for one-shot batch runs).
	max       int
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	evictions int64
	// reserved holds one reservation per cache key currently being solved:
	// the first job to miss becomes the leader, later jobs with the same
	// key wait on its done channel instead of solving redundantly. Entries
	// are removed by Engine.release, which the leader defers — including
	// across recovered panics, so a dead leader cannot strand its waiters.
	reserved map[string]*reservation
	// raw is the raw-text index: the digest of a module's MIR text and
	// effective configuration (see rawKeyOf) → the canonical key of the
	// resident entry that answers it. Each index entry belongs to the
	// entry it points at (cacheEntry.raws) and leaves with it, so a raw
	// hit is always a memory hit and the index is bounded by max.
	raw map[rawKey]string
	// flushing holds entries evicted to the persistent store whose Save
	// has not landed yet. Lookups consult it between the two tiers, so an
	// entry in flight to disk is never missing from both.
	flushing map[string]cached
}

// rawKey is the raw-text index key; the zero value means "no raw text".
type rawKey [32]byte

// maxRawPerEntry bounds the raw keys one entry carries: a client that
// sends endless textual variants of one module cycles through them
// instead of growing the index.
const maxRawPerEntry = 4

// reservation is the rendezvous between the leader solving a cache key
// and the jobs coalesced behind it. The leader fills c/ok (ok only for
// an exact, cacheable solution) before release closes done.
type reservation struct {
	done chan struct{}
	c    cached
	ok   bool
}

type cacheEntry struct {
	key  string
	val  cached
	raws []rawKey // raw-text index keys that resolve to this entry
}

func newSolutionCache(max int) *solutionCache {
	return &solutionCache{
		max:      max,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		reserved: map[string]*reservation{},
		raw:      map[rawKey]string{},
		flushing: map[string]cached{},
	}
}

// get returns the cached value and marks the entry most recently used.
func (c *solutionCache) get(key string) (cached, bool) {
	el, ok := c.entries[key]
	if !ok {
		return cached{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// getRaw resolves a raw-text key to its resident entry, marking it most
// recently used.
func (c *solutionCache) getRaw(rk rawKey) (string, cached, bool) {
	key, ok := c.raw[rk]
	if !ok {
		return "", cached{}, false
	}
	val, ok := c.get(key) // the index only names resident entries
	return key, val, ok
}

// put inserts or refreshes an entry, indexes rk (when non-zero) under it,
// and evicts least-recently-used entries until occupancy is back under
// the cap. The evicted entries are returned so the engine can flush them
// to the persistent store (outside its mutex) instead of losing them —
// the disk tier's lazy write-behind.
func (c *solutionCache) put(key string, val cached, rk rawKey) []cacheEntry {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		c.index(rk, key)
		return nil
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	c.index(rk, key)
	var evicted []cacheEntry
	for c.max > 0 && len(c.entries) > c.max {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(*cacheEntry)
		c.remove(oldest)
		c.evictions++
		evicted = append(evicted, *ent)
	}
	return evicted
}

// index records that raw-text key rk resolves to the resident entry key.
// A zero rk, an already indexed rk, or a key that is not resident (an
// insert fault lost it) is a no-op.
func (c *solutionCache) index(rk rawKey, key string) {
	if rk == (rawKey{}) {
		return
	}
	el, ok := c.entries[key]
	if !ok {
		return
	}
	if _, ok := c.raw[rk]; ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	if len(ent.raws) == maxRawPerEntry {
		delete(c.raw, ent.raws[0])
		ent.raws = append(ent.raws[:0], ent.raws[1:]...)
	}
	ent.raws = append(ent.raws, rk)
	c.raw[rk] = key
}

// remove unlinks a resident entry and its raw-text keys.
func (c *solutionCache) remove(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, ent.key)
	for _, rk := range ent.raws {
		delete(c.raw, rk)
	}
}

// snapshot returns every resident entry, most recently used first; the
// engine's SyncStore flushes the lot on graceful drain.
func (c *solutionCache) snapshot() []cacheEntry {
	out := make([]cacheEntry, 0, len(c.entries))
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*cacheEntry))
	}
	return out
}

// drop removes an entry outright (used when lookup verification finds a
// corrupted entry — it must not survive to be served later).
func (c *solutionCache) drop(key string) {
	if el, ok := c.entries[key]; ok {
		c.remove(el)
	}
}

// len returns the current occupancy.
func (c *solutionCache) len() int { return len(c.entries) }
