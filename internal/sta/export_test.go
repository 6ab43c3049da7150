package sta

// SetDiskTierOpener installs the disk tier opener TestCacheKeySeparatorInNames
// uses (see openDiskTier).
func SetDiskTierOpener(open func(dir, signature string) (TierStore, func() error, error)) {
	openDiskTier = open
}
