package opt

import "peak/internal/ir"

// rewriteExpr is the fold tests' name for ir.RewriteExpr.
var rewriteExpr = ir.RewriteExpr
