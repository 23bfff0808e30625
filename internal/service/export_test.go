package service

// MaxSpecBytes exposes the spec-size bound to the external test package.
const MaxSpecBytes = maxSpecBytes
