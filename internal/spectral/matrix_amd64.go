package spectral

// useAVX selects mulInto's vector kernel: true when the CPU has AVX and the
// operating system saves the YMM registers across context switches. Tests
// set it to false to run the Go loop on the same inputs.
var useAVX = avxEnabled()

// avxEnabled reads CPUID leaf 1 for AVX (ECX bit 28) and OSXSAVE (ECX bit
// 27), then XCR0 for the XMM and YMM state bits (1 and 2): without the
// latter the OS would not preserve the upper halves the kernel uses.
func avxEnabled() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of XCR0; call only when OSXSAVE is set.
func xgetbv0() uint32

// mulAddPairAVX updates two rows of a product, o and o+n, by one block of
// four rows of b (at b, row stride n) in the first n&^3 columns: for each
// column j, o[j] += c[0]·b[j] + c[1]·b[n+j] + c[2]·b[2n+j] + c[3]·b[3n+j]
// with the terms added left to right, each multiply and add rounded on
// its own, and likewise o[n+j] with the coefficients at c+n. n must be at
// least 4.
//
//go:noescape
func mulAddPairAVX(o, c, b *float64, n int)
