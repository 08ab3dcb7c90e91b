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
    Star,
    TableRef,
)
from repro.sql.lexer import Token, tokenize
from repro.sql.parser import parse
from repro.sql.plan_cache import PlanCache, template_key
from repro.sql.planner import CrackerProvider, build_plan
from repro.sql.result import QueryResult
from repro.sql.session import Database, PreparedStatement, split_statements
from repro.sql.statements import (
    CreateTableStmt,
    InsertSelectStmt,
    InsertValuesStmt,
    SelectStmt,
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
    "PlanCache",
    "PreparedStatement",
    "QueryResult",
    "RangePredicate",
    "ResidualPredicate",
    "SelectStmt",
    "Star",
    "TableRef",
    "Token",
    "analyze",
    "build_plan",
    "extract_crackers",
    "parse",
    "split_statements",
    "template_key",
    "tokenize",
]
