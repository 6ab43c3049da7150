package sta_test

import (
	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
)

// The disk tier lives in a package that imports sta, so the in-package key
// tests reach it through this hook.
func init() {
	sta.SetDiskTierOpener(func(dir, signature string) (sta.TierStore, func() error, error) {
		s, err := diskcache.Open(dir, signature, diskcache.Options{})
		if err != nil {
			return nil, nil, err
		}
		return s, s.Close, nil
	})
}
