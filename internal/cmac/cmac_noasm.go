//go:build !amd64 || purego

package cmac

// haveKernel is false where no CBC-MAC kernel is built: every MAC takes
// the portable chain.
const haveKernel = false

func expandKey(*[16]byte, *[176]byte) { panic("cmac: no AES-NI kernel") }

func cbcMAC(*[176]byte, *[16]byte, *[16]byte, []byte) { panic("cmac: no AES-NI kernel") }
