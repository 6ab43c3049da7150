// Package slab holds the one rule the reusable buffers of the analysis
// arena and the stage extractor share.
package slab

// Resize returns b with length n, reusing its backing array when it fits.
// Entries b held past n are zeroed, so every entry past a slab's length is
// zero and a clear of the length before the slab is pooled reaches
// everything a use wrote: a shorter use must not leave the longer one's
// pointers and strings behind. Contents below n are unspecified; callers
// that need them zeroed clear them themselves.
func Resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	if n < len(b) {
		clear(b[n:])
	}
	return b[:n]
}
