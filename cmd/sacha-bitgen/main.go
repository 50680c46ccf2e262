// Command sacha-bitgen builds golden bitstreams and Msk mask files for an
// intended application, the role the Xilinx toolchain plays in §6.1:
//
//	sacha-bitgen -device SmallLX -app blinker16 -nonce 7 \
//	             -golden golden.sbit -mask msk.sbit -partial dyn.sbit
//
// golden.sbit holds the full-device golden image, msk.sbit the register
// capture mask, and dyn.sbit the partial bitstream covering the dynamic
// partition (what the verifier transmits frame by frame).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sacha/internal/apps"
	"sacha/internal/bitstream"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fabric"
)

func main() {
	devName := flag.String("device", "SmallLX", "device geometry")
	appName := flag.String("app", "blinker16", "intended application")
	buildID := flag.Uint64("build", 1, "static bitstream build ID")
	nonce := flag.Uint64("nonce", 1, "nonce value to embed")
	goldenPath := flag.String("golden", "", "write the full golden image here")
	maskPath := flag.String("mask", "", "write the Msk mask file here")
	partialPath := flag.String("partial", "", "write the dynamic partial bitstream here")
	flag.Parse()

	geo, err := device.ByName(*devName)
	fatal(err)
	app, err := apps.ByName(*appName)
	fatal(err)

	golden, dynFrames, err := core.BuildGolden(geo, app, *buildID, *nonce)
	fatal(err)

	wrote := false
	if *goldenPath != "" {
		fatal(writeFile(*goldenPath, bitstream.FullImage(golden)))
		fmt.Printf("golden image:      %s (%d frames, %d bytes of configuration)\n",
			*goldenPath, golden.NumFrames(), golden.NumFrames()*324)
		wrote = true
	}
	if *maskPath != "" {
		msk, im := fabric.GenerateMask(geo), fabric.NewImage(geo)
		for i := 0; i < im.NumFrames(); i++ {
			im.SetFrame(i, msk.Frame(i))
		}
		fatal(writeFile(*maskPath, bitstream.FullImage(im)))
		fmt.Printf("register mask:     %s\n", *maskPath)
		wrote = true
	}
	if *partialPath != "" {
		fatal(writeFile(*partialPath, bitstream.FromImage(golden, dynFrames)))
		fmt.Printf("partial bitstream: %s (%d dynamic frames, %d bytes)\n",
			*partialPath, len(dynFrames), len(dynFrames)*324)
		wrote = true
	}
	if !wrote {
		flag.Usage()
		os.Exit(2)
	}
}

func writeFile(path string, p *bitstream.Partial) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = p.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	if err != nil {
		log.Fatal("sacha-bitgen: ", err)
	}
}
