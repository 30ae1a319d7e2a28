package core

import (
	"repro/internal/convcache"
	"repro/internal/sparse"
)

// cacheKey builds this wrapper's conversion-cache key for format f from the
// identity configured at registration. The value digest is part of the key:
// the structure fingerprint alone would let two matrices with equal
// sparsity but different entries alias each other's converted values.
func cacheKeyFor(cfg *Config, f sparse.Format) convcache.Key {
	return convcache.Key{
		Fingerprint: cfg.CacheFingerprint,
		Values:      cfg.CacheValues,
		Format:      f,
	}
}

// cacheUsable reports whether the config carries enough identity to consult
// the conversion cache.
func cacheUsable(cfg *Config) bool {
	return cfg.ConvCache != nil && cfg.CacheFingerprint != "" && cfg.CacheValues != ""
}

// cachedFormats probes which candidate formats already have a published
// conversion for this exact matrix, using Has (which leaves the hit/miss
// counters alone — only an adoption counts as a hit). The result feeds
// Query.Cached, where a cached format's T_convert is zero: the cache changes
// the decision, not just its cost.
func cachedFormats(cfg *Config) map[sparse.Format]bool {
	if !cacheUsable(cfg) {
		return nil
	}
	var m map[sparse.Format]bool
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		if cfg.ConvCache.Has(cacheKeyFor(cfg, f)) {
			if m == nil {
				m = make(map[sparse.Format]bool)
			}
			m[f] = true
		}
	}
	return m
}
