package sta

// SetDiskTierOpener installs the disk tier opener TestCacheKeySeparatorInNames
// uses (see openDiskTier).
func SetDiskTierOpener(open func(dir, signature string) (TierStore, func() error, error)) {
	openDiskTier = open
}

// CacheEntries counts a's delay-cache keys, finished or in flight.
func CacheEntries(a *Analyzer) int { return a.cache.entries() }
