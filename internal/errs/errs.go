// Package errs is the one wrapped-error type of the packages the daemons
// link. Each builds its error text with strconv and concatenation, not fmt,
// so that fmt (and the reflect it runs on) stays out of dnsguardd's image:
// where fmt.Errorf would take %w, it takes Wrap.
package errs

// wrapped is an error with its own text that unwraps to the error it wraps.
type wrapped struct {
	msg string
	err error
}

func (e *wrapped) Error() string { return e.msg }
func (e *wrapped) Unwrap() error { return e.err }

// Wrap returns an error whose text is msg and which errors.Is and errors.As
// see through to err: fmt.Errorf("op: %w", err) is
// Wrap("op: "+err.Error(), err). A nil err wraps nothing.
func Wrap(msg string, err error) error { return &wrapped{msg, err} }
