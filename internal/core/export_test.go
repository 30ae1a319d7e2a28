package core

// FormatValid exposes stage 2's validity check to the external tests.
var FormatValid = formatValid
