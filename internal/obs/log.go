package obs

import (
	"log/slog"
	"os"
)

// NewLogger builds a daemon's process logger on stderr from its -log-json
// and -log-level flags; a level slog cannot parse means Info.
func NewLogger(asJSON bool, level string) *slog.Logger {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		lv = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lv}
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}
