package edge

import (
	"errors"
	"fmt"
)

// Classifier labels one analysis window's feature vector (the label values
// are the application's, e.g. core.LabelAF / core.LabelNormal).
type Classifier func(features []float64) (int, error)

// Featurizer converts a raw signal window into the classifier's feature
// vector (e.g. the zero-pad + STFT + PCA-projection pipeline). It must not
// modify the window it is given.
type Featurizer func(window []float64, fs float64) ([]float64, error)

// Config parameterises a stream's windows and alarm.
type Config struct {
	// Fs is the stream's sampling rate in Hz.
	Fs float64
	// WindowSec is the analysis window length. Default 10 s.
	WindowSec float64
	// StrideSec is the hop between consecutive windows. Default 2 s.
	StrideSec float64
	// AlarmAfter is the number of consecutive positive windows required to
	// raise the alarm (debouncing transient misclassifications). Default 2.
	AlarmAfter int
	// PositiveLabel is the label treated as an AF detection. Default 0
	// (core.LabelAF).
	PositiveLabel int
}

func (c Config) withDefaults() Config {
	if c.WindowSec == 0 {
		c.WindowSec = 10
	}
	if c.StrideSec == 0 {
		c.StrideSec = 2
	}
	if c.AlarmAfter == 0 {
		c.AlarmAfter = 2
	}
	return c
}

// Event is one classified window.
type Event struct {
	// TimeSec is the window's end time in the stream.
	TimeSec float64
	// Label is the classifier's output.
	Label int
	// Alarm is true on the event that crosses the debounce threshold.
	Alarm bool
}

// Validate checks the sampling rate and window geometry, in seconds and in
// the whole samples they round down to (Run and the serving layer share
// it).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Fs <= 0 {
		return errors.New("edge: Fs must be positive")
	}
	if c.StrideSec <= 0 || c.WindowSec <= 0 || c.StrideSec > c.WindowSec {
		return fmt.Errorf("edge: invalid window %gs / stride %gs", c.WindowSec, c.StrideSec)
	}
	if c.WindowSamples() < 1 || c.StrideSamples() < 1 {
		return fmt.Errorf("edge: window %gs / stride %gs at %g Hz is %d / %d samples, want at least 1 each",
			c.WindowSec, c.StrideSec, c.Fs, c.WindowSamples(), c.StrideSamples())
	}
	return nil
}

// WindowSamples returns the analysis window length in samples.
func (c Config) WindowSamples() int {
	c = c.withDefaults()
	return int(c.WindowSec * c.Fs)
}

// StrideSamples returns the hop between consecutive windows in samples.
func (c Config) StrideSamples() int {
	c = c.withDefaults()
	return int(c.StrideSec * c.Fs)
}

// Windower cuts fixed-length sliding windows from an incrementally pushed
// sample stream, so a serving coordinator can cut windows as samples
// arrive while scoring them elsewhere.
//
// It reuses one backing array, compacting in place: a Push that finds the
// array full moves the unconsumed samples to its front, and the array grows
// only when a window, or the unconsumed samples and the push, would not fit.
// A stream whose windows are taken as they complete holds at most one window
// and one push of samples, however long it runs.
type Windower struct {
	buf      []float64 // the unconsumed samples, a suffix of mem's
	mem      []float64 // the backing array
	consumed int       // samples dropped from the front of buf
	winLen   int
	stride   int
}

// NewWindower builds a windower over winLen-sample windows advancing by
// stride samples.
func NewWindower(winLen, stride int) (*Windower, error) {
	if winLen <= 0 || stride <= 0 || stride > winLen {
		return nil, fmt.Errorf("edge: invalid window %d / stride %d samples", winLen, stride)
	}
	return &Windower{winLen: winLen, stride: stride}, nil
}

// Push appends samples to the stream.
func (w *Windower) Push(samples ...float64) {
	n := len(w.buf) + len(samples)
	if n > cap(w.buf) {
		if n > cap(w.mem) {
			w.mem = make([]float64, 0, max(n, w.winLen))
		}
		w.buf = w.mem[:copy(w.mem[:len(w.buf)], w.buf)]
	}
	w.buf = append(w.buf, samples...)
}

// Peek returns the next complete analysis window, or ok=false when fewer
// than a window's worth of samples are buffered. The returned slice is a
// view into the internal buffer, valid until the next Push: callers that
// retain the window past that must copy it. endSample is the stream index
// one past the window's last sample (Event.TimeSec = endSample / Fs).
func (w *Windower) Peek() (window []float64, endSample int, ok bool) {
	if len(w.buf) < w.winLen {
		return nil, 0, false
	}
	return w.buf[:w.winLen:w.winLen], w.consumed + w.winLen, true
}

// Advance consumes the window Peek returned, moving the stream forward by
// one stride. It is a no-op when no complete window is buffered.
func (w *Windower) Advance() {
	if len(w.buf) < w.winLen {
		return
	}
	w.buf = w.buf[w.stride:]
	w.consumed += w.stride
}

// Debouncer turns one stream's ordered per-window label sequence into
// events, applying the consecutive-positive alarm rule: fed every window's
// label in stream order, it reproduces Run's events exactly. A window that
// was never scored (e.g. shed under overload by the serving layer) is
// represented by *not* calling Apply for it — a gap neither extends nor
// resets the consecutive-positive chain, so a dropped window can never mask
// an ongoing episode.
type Debouncer struct {
	fs          float64
	alarmAfter  int
	positive    int
	consecPos   int
	alarmRaised bool
}

// NewDebouncer builds a debouncer from the stream configuration (Fs,
// AlarmAfter and PositiveLabel are used; defaults apply).
func NewDebouncer(cfg Config) *Debouncer {
	cfg = cfg.withDefaults()
	return &Debouncer{fs: cfg.Fs, alarmAfter: cfg.AlarmAfter, positive: cfg.PositiveLabel}
}

// Apply records the label of the window ending at endSample and returns
// its event, with Alarm set on the event that crosses the debounce
// threshold.
func (d *Debouncer) Apply(endSample, label int) Event {
	ev := Event{TimeSec: float64(endSample) / d.fs, Label: label}
	if label == d.positive {
		d.consecPos++
		if d.consecPos >= d.alarmAfter && !d.alarmRaised {
			d.alarmRaised = true
			ev.Alarm = true
		}
	} else {
		d.consecPos = 0
	}
	return ev
}

// AlarmRaised reports whether the alarm has fired.
func (d *Debouncer) AlarmRaised() bool { return d.alarmRaised }

// Run processes a whole recording at once and returns all events plus the
// alarm time (-1 when no alarm fired). It is the reference loop the serving
// layer's parity tests check against: every complete window, in stream
// order, featurized, classified and applied to a Debouncer. On a featurizer
// or classifier error the events raised before the failing window are
// returned alongside the error.
func Run(cfg Config, featurize Featurizer, classify Classifier, signal []float64) ([]Event, float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, -1, err
	}
	if featurize == nil || classify == nil {
		return nil, -1, errors.New("edge: featurizer and classifier are required")
	}
	win, stride := cfg.WindowSamples(), cfg.StrideSamples()
	deb := NewDebouncer(cfg)
	var events []Event
	alarm := -1.0
	for end := win; end <= len(signal); end += stride {
		feats, err := featurize(signal[end-win:end:end], cfg.Fs)
		if err != nil {
			return events, -1, fmt.Errorf("edge: featurize: %w", err)
		}
		label, err := classify(feats)
		if err != nil {
			return events, -1, fmt.Errorf("edge: classify: %w", err)
		}
		ev := deb.Apply(end, label)
		if ev.Alarm {
			alarm = ev.TimeSec
		}
		events = append(events, ev)
	}
	return events, alarm, nil
}

// DetectionLatency returns the delay between an episode onset and the
// alarm, or -1 when the alarm never fired (a missed episode).
func DetectionLatency(alarmTimeSec, onsetSec float64) float64 {
	if alarmTimeSec < 0 {
		return -1
	}
	return alarmTimeSec - onsetSec
}
