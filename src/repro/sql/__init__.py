"""SQL front-end: lexer, parser, analyzer (cracker extraction), planner."""

from repro.sql.analyzer import (
    AnalyzedQuery,
    CrackerAdvice,
    JoinPredicate,
    RangePredicate,
    ResidualPredicate,
    analyze,
    extract_crackers,
)
from repro.sql.ast_nodes import (
    AggCall,
    Between,
    ColRef,
    Comparison,
    Const,
    CreateTableStmt,
    InsertSelectStmt,
    InsertValuesStmt,
    SelectStmt,
    Star,
    TableRef,
)
from repro.sql.lexer import Token, tokenize
from repro.sql.parser import parse
from repro.sql.plan_cache import (
    PlanCache,
    StatementTemplate,
    bind_statement,
    template_key,
)
from repro.sql.planner import (
    PLAN_MODES,
    CrackerProvider,
    PositionalScan,
    build_plan,
)
from repro.sql.session import (
    Database,
    PreparedStatement,
    QueryResult,
    split_statements,
)

__all__ = [
    "AggCall",
    "AnalyzedQuery",
    "Between",
    "ColRef",
    "Comparison",
    "Const",
    "CrackerAdvice",
    "CrackerProvider",
    "CreateTableStmt",
    "Database",
    "InsertSelectStmt",
    "InsertValuesStmt",
    "JoinPredicate",
    "PLAN_MODES",
    "PlanCache",
    "PositionalScan",
    "PreparedStatement",
    "QueryResult",
    "RangePredicate",
    "ResidualPredicate",
    "SelectStmt",
    "Star",
    "StatementTemplate",
    "TableRef",
    "Token",
    "analyze",
    "bind_statement",
    "build_plan",
    "extract_crackers",
    "parse",
    "split_statements",
    "template_key",
    "tokenize",
]
