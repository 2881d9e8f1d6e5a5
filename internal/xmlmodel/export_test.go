package xmlmodel

// EntityRune exposes the entity decoder to the external test package, so
// the frozen recursive-parser oracle decodes entities exactly as the
// production path does.
var EntityRune = entityRune
