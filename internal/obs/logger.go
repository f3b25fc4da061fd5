package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// SetupDefault installs a stderr handler for the binaries' -log-level and
// -log-format flag values as slog's process default; the log package writes
// through it too, at the level slog.SetLogLoggerLevel sets.
func SetupDefault(level, format string) error {
	h, err := newHandler(os.Stderr, level, format)
	if err == nil {
		slog.SetDefault(slog.New(h))
	}
	return err
}

// newHandler returns the handler for a -log-level (debug | info | warn |
// warning | error) and -log-format (kv, text or logfmt for slog's key=value
// lines, json for one JSON object a line) pair, writing to w.
func newHandler(w io.Writer, level, format string) (slog.Handler, error) {
	lv, ok := map[string]slog.Level{"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError}[strings.ToLower(level)]
	if !ok {
		return nil, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "kv", "text", "logfmt":
		return slog.NewTextHandler(w, opts), nil
	case "json":
		return slog.NewJSONHandler(w, opts), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want kv|json)", format)
}
