"""Two-sorted circular proof systems for safe recursion.

Proof graphs over the boxed/plain sequent rules can be validated,
classified (safe / left-leaning / progressing), evaluated, compiled
from function-algebra terms, translated to guarded well-founded
recursion programs, and bounded symbolically.
"""

from .kernel import (
    Node,
    ProofGraph,
    Rule,
    RuleKind,
    Sequent,
    SType,
    StepError,
    TupleOrder,
    TupleOrderWitness,
    is_prefix,
    length,
    pred,
    s0,
    s1,
    tuple_below,
    tuple_order,
    validate_graph,
    validate_step,
)
from .interp import (
    Call,
    CompNormal,
    CompSafe,
    Cond,
    EvalConfig,
    EvalError,
    EvalStats,
    FuelExhausted,
    GuardViolation,
    OracleCall,
    OracleDef,
    OracleEnv,
    PPFunction,
    PPProgram,
    Pred,
    Proj,
    S0,
    S1,
    SimRecPP,
    SNRec,
    SNRecPP,
    SRecN,
    SRecPP,
    TagDispatch,
    Term,
    TermDef,
    Zero,
    check_term_class,
    descent_audit,
    eval_pp,
    eval_proof,
    eval_term,
)
from .checker import (
    Classification,
    check_left_leaning,
    check_progressing_safe,
    check_safety,
    classify,
    cycle_path_diagnostics,
)
from .transform import (
    CycleNF,
    NotProgressing,
    ShapeViolation,
    TransformError,
    box_promote,
    close_open_sets,
    cnf_to_graph,
    cycle_normal_form,
    flatten_program,
    pass_parameters,
    reduce_simultaneous,
    strip_safe_inputs,
)
from .compilealg import CompileError, nb_to_circular, srec_eliminate, term_to_derivation
from .translate import TranslateError, translate
from .bounds import BoundPair, BoundReport, input_bound, synthesize_bound, verify_bound
from .formats import (
    ParseError,
    export_dot,
    parse_proof,
    parse_terms,
    serialize_program,
    serialize_proof,
    serialize_termdef,
)
