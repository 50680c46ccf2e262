//go:build amd64 && !purego

package cmac

// haveKernel reports whether New runs the AES-NI CBC-MAC kernel of
// cmac_amd64.s; without AES-NI it takes the portable chain.
var haveKernel = hasAESNI()

// hasAESNI reports CPUID.1:ECX bit 25, the AES instruction set.
func hasAESNI() bool

// expandKey writes the AES-128 key schedule of key to rk: the 11 round
// keys in order, each as the 16 bytes AESENC takes.
//
//go:noescape
func expandKey(key *[16]byte, rk *[176]byte)

// cbcMAC sets x = AES(K, x ^ held), then x = AES(K, x ^ b) for each
// whole 16-byte block b of src, with the round keys rk of K held in
// registers for the whole call.
//
//go:noescape
func cbcMAC(rk *[176]byte, x, held *[16]byte, src []byte)
