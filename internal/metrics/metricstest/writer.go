package metricstest

// ParkedWriter blocks in Write until Release is closed, like a /metrics
// client that stopped reading its response; it closes Entered on the way
// in and then reports Err. One Write only.
type ParkedWriter struct {
	Entered, Release chan struct{}
	Err              error
}

// NewParkedWriter returns a writer whose Write will fail with err (nil:
// succeed) once released.
func NewParkedWriter(err error) ParkedWriter {
	return ParkedWriter{make(chan struct{}), make(chan struct{}), err}
}

func (w ParkedWriter) Write(p []byte) (int, error) {
	close(w.Entered)
	<-w.Release
	return len(p), w.Err
}
