package montecarlo

import "sync/atomic"

// ProgressSink receives live run-progress callbacks from the Monte Carlo
// engine. The interface is structural so the
// observability layer can implement it without this package importing it:
// obs.Progress satisfies it directly. Implementations must be safe for
// concurrent SampleDone calls from every worker.
type ProgressSink interface {
	// RunStart reports the run shape before the first sample is claimed.
	RunStart(total, workers int)
	// SampleDone reports one finished sample (failed samples included).
	SampleDone(failed bool)
	// RunEnd reports run completion (including aborted runs).
	RunEnd()
}

// progressBox wraps the sink so atomic.Value accepts changing concrete
// types (including a nil sink to detach).
type progressBox struct{ sink ProgressSink }

var progress atomic.Value // progressBox

// SetProgress attaches a process-wide progress sink picked up by the next
// run (each run reads it once at start). Pass nil to detach.
func SetProgress(s ProgressSink) { progress.Store(progressBox{sink: s}) }

// currentProgress returns the attached sink, or nil.
func currentProgress() ProgressSink {
	if b, ok := progress.Load().(progressBox); ok {
		return b.sink
	}
	return nil
}
