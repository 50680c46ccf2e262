package attestation

import (
	"fmt"
	"io"

	"sacha/internal/obs/span"
)

// Step event kinds: the verifier-observable A-actions of Table 3. Run
// records one span event per step, carrying the action's modelled
// duration on the XC6VLX240T action model — the machine-readable Fig. 9.
const (
	StepConfig    = "ICAP_config"   // A1+A2, per configuration packet
	StepReadback  = "ICAP_readback" // A3+A4+A6, per read-back frame
	StepFrameData = "Frame_data"    // A8, per frame sendback
	StepChecksum  = "MAC_checksum"  // A9+A7, MAC finalisation
	StepMACValue  = "MAC_value"     // A10, tag returned to the verifier
)

// Milestone event kinds: one per line of the Fig. 8 protocol trace. The
// event's note is the line's text; milestones carry no virtual time.
const (
	milestoneHello         = "hello"
	milestoneDeltaScan     = "delta-scan"
	milestoneDeltaApplied  = "delta-applied"
	milestoneDeltaFallback = "delta-fallback"
	milestoneConfig        = "config"
	milestoneAppStep       = "app-step"
	milestoneReadback      = "readback"
	milestoneChecksum      = "checksum"
	milestoneVerdict       = "verdict"
)

// IsStep reports whether an event kind is one of the Step kinds.
func IsStep(kind string) bool {
	switch kind {
	case StepConfig, StepReadback, StepFrameData, StepChecksum, StepMACValue:
		return true
	}
	return false
}

// WriteMilestones writes the Fig. 8 protocol trace of a recorded
// session: the note of every milestone event, one line each, in
// recording order.
func WriteMilestones(w io.Writer, events []span.Event) error {
	for _, e := range events {
		switch e.Kind {
		case milestoneHello, milestoneDeltaScan, milestoneDeltaApplied, milestoneDeltaFallback,
			milestoneConfig, milestoneAppStep, milestoneReadback, milestoneChecksum, milestoneVerdict:
			if _, err := fmt.Fprintln(w, e.Note); err != nil {
				return err
			}
		}
	}
	return nil
}
