//go:build !amd64

package spectral

// useAVX is false off amd64: mulInto runs its Go loop.
var useAVX = false

// mulAddPairAVX is never called: useAVX is false.
func mulAddPairAVX(o, c, b *float64, n int) { panic("spectral: no vector kernel on this architecture") }
