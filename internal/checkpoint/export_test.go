package checkpoint

import (
	"errors"
	"os"
)

// Retained reports how many streamed units the writer holds for the
// memory tier.
func (w *SweepWriter) Retained() int { return len(w.units) }

// WithoutHardLinks makes store writers see a filesystem without hard
// links until the returned func restores it.
func WithoutHardLinks() (restore func()) {
	hardLink = func(string, string) error { return errors.New("hard links not supported") }
	return func() { hardLink = os.Link }
}
