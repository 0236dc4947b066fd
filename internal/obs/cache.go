package obs

// Metric names exported by CacheMetrics.
const (
	metricCacheHits      = "lmbench_unit_cache_hits_total"
	metricCacheMisses    = "lmbench_unit_cache_misses_total"
	metricCacheEvictions = "lmbench_unit_cache_evictions_total"
	metricCacheBytes     = "lmbench_unit_cache_bytes_total"
)

// CacheMetrics aggregates unit-cache traffic into a Registry. It
// satisfies unitcache.Observer (structurally — the cache takes any
// implementation, keeping obs dependency-free) and is safe for
// concurrent use by an executor's slots.
type CacheMetrics struct {
	hits, misses *Counter
	evictions    *Counter
	bytes        *Counter
}

// NewCacheMetrics registers the unit-cache metric families in reg and
// returns the observer feeding them.
func NewCacheMetrics(reg *Registry) *CacheMetrics {
	return &CacheMetrics{
		hits:      reg.Counter(metricCacheHits, "Work units served from the unit cache."),
		misses:    reg.Counter(metricCacheMisses, "Unit-cache lookups that found nothing usable."),
		evictions: reg.Counter(metricCacheEvictions, "Unit-cache fragments evicted by the size cap."),
		bytes:     reg.Counter(metricCacheBytes, "Bytes of unit-cache fragments written."),
	}
}

// CacheHit implements unitcache.Observer.
func (c *CacheMetrics) CacheHit() { c.hits.Inc() }

// CacheMiss implements unitcache.Observer.
func (c *CacheMetrics) CacheMiss() { c.misses.Inc() }

// CacheStored implements unitcache.Observer.
func (c *CacheMetrics) CacheStored(bytes int64) { c.bytes.Add(bytes) }

// CacheEvicted implements unitcache.Observer.
func (c *CacheMetrics) CacheEvicted(files int, bytes int64) {
	c.evictions.Add(int64(files))
}
