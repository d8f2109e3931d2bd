package bench

import (
	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/timeline"
)

// TracePingPong records the component timeline of one ping-pong.
func TracePingPong(p netsim.Params, v Variant, size int, rec *timeline.Recorder) error {
	_, err := pingPongHalfRTT(freshEnv(rec), p, v, size, noise.None())
	return err
}

// TraceAccumulate records the component timeline of one sPIN accumulate.
func TraceAccumulate(p netsim.Params, size int, rec *timeline.Recorder) error {
	_, err := accumulateTime(freshEnv(rec), p, true, size)
	return err
}

// TraceBroadcast records the component timeline of a streaming broadcast.
func TraceBroadcast(p netsim.Params, ranks, size int, rec *timeline.Recorder) error {
	_, err := broadcastTime(freshEnv(rec), p, SpinStream, ranks, size)
	return err
}

// TraceStrided records the component timeline of a strided receive with
// the given blocksize.
func TraceStrided(p netsim.Params, blocksize int, rec *timeline.Recorder) error {
	_, err := stridedReceiveTime(freshEnv(rec), p, true, blocksize)
	return err
}
