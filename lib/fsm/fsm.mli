(** Finite-state-machine property specifications (paper, Section 2,
    Figures 2 and 3a).

    A property names the object classes it tracks, the FSM states, the
    transitions driven by method-call events on a tracked object, and the
    states acceptable at the object's end of life.  Typestate semantics: the
    distinguished [Error] state is absorbing; an event with no declared
    transition either stalls (default) or errs ({!strict_events}). *)

type state = int

(** How a statement fires an event.  An FSM with no event declarations
    uses *name matching*: every library instance call fires an event named
    after the called method (the historical behavior).  An FSM compiled
    from a property DSL spec may declare events explicitly, each with a
    syntactic pattern and guards; a statement then fires the first
    declared event whose pattern matches and whose guards all hold. *)
type pattern =
  | Pcall of string  (** library instance call with this method name *)
  | Pany_call        (** any library instance call *)
  | Pstore           (** the tracked reference is stored into a field *)
  | Preturn          (** the tracked reference is returned *)

(** Guards are pure syntactic predicates over (statement, enclosing
    method), so every analysis that detects events independently agrees
    statement by statement. *)
type guard =
  | Garg_const of int * int  (** argument [i] is the integer literal [n] *)
  | Gnullable of bool
      (** the subject variable has (lacks) a null assignment in the
          enclosing method *)
  | Gescaping of bool
      (** the subject variable is (is not) stored to a field, passed as a
          call argument, or returned in the enclosing method *)

type event_decl = {
  ev_name : string;
  ev_pattern : pattern;
  ev_guards : guard list;
}

type t = private {
  name : string;
  tracked_classes : string list;
  state_names : string array;
  initial : state;
  error : state;
  transitions : (state * string, state) Hashtbl.t;
  accepting : state list;
  events : string list;
  ignore_unknown_events : bool;
  event_decls : event_decl list;
      (** empty = name matching; repeated names act as alternation, first
          match wins *)
  messages : (string * string) list;
      (** state name -> report message template ([{class}]/[{state}]
          substituted at report time) *)
}

(** {1 Building specifications} *)

type builder

exception Invalid_spec of string

val builder : string -> builder
val track : builder -> string -> unit
(** Add an object class whose allocations the property tracks. *)

val state : builder -> string -> unit
val initial : builder -> string -> unit
val accepting : builder -> string -> unit
val on : builder -> from:string -> event:string -> goto:string -> unit

val strict_events : builder -> unit
(** Make events without a declared transition drive the object to [Error]
    instead of leaving the state unchanged. *)

val declare_event :
  builder -> name:string -> pattern:pattern -> guards:guard list -> unit
(** Declare a pattern-matched event; switches the FSM to declared-event
    matching. *)

val message : builder -> state:string -> text:string -> unit
(** Attach a report message template to a state. *)

val build : builder -> t
(** Raises {!Invalid_spec} on a missing initial state, no tracked classes,
    or nondeterministic transitions.  An [Error] state is added if the
    specification does not declare one. *)

(** {1 Queries} *)

val n_states : t -> int
val state_name : t -> state -> string
val is_accepting : t -> state -> bool
val is_tracked : t -> string -> bool
val is_event : t -> string -> bool

(** {1 Typestate semantics} *)

val step : t -> state -> string -> state
val run : t -> string list -> state
(** [run t events] folds {!step} from the initial state. *)

val event_vector : t -> string -> int array
(** The transition function of one event as a vector indexed by state,
    suitable for {!Cfl.Transfn.intern}. *)

type verdict = Ok_ | Reaches_error | Bad_final of state

val check_sequence : t -> string list -> verdict
(** Classify a complete event sequence: reaches [Error], ends in a
    non-accepting state, or is fine. *)

(** {1 Event matching}

    The single point of truth for "which event, if any, does this
    statement fire".  {!stmt_event} is the one dispatch: the
    dataflow-graph builder, the points-to pre-filter and the escape
    replay call it, and the summary pre-analysis applies the same
    per-kind matchers below.  The caller decides whether a call is a
    library call (target not defined in the program); the matcher
    resolves patterns and guards. *)

val stmt_event :
  t -> library:(Jir.Ast.call -> bool) -> meth:Jir.Ast.meth -> Jir.Ast.stmt ->
  (Jir.Ast.var * string) option
(** The (subject variable, event) a statement fires: {!call_event} on the
    receiver of a call for which [library] holds, {!store_event} on the
    stored reference of a field store, {!return_event} on the variable of
    [return v]; [None] for every other statement. *)

val call_event : t -> meth:Jir.Ast.meth -> Jir.Ast.call -> string option
(** Event fired by a library instance call ([None] for static calls, or
    when no declared pattern+guards match).  Name-matching FSMs fire the
    called method's name unconditionally. *)

val store_event : t -> meth:Jir.Ast.meth -> src:Jir.Ast.var -> string option
(** Event fired by storing the tracked reference [src] into a field
    (declared-event FSMs only). *)

val return_event : t -> meth:Jir.Ast.meth -> Jir.Ast.var -> string option
(** Event fired by returning the tracked reference (declared-event FSMs
    only). *)

val guard_holds :
  meth:Jir.Ast.meth -> var:Jir.Ast.var -> call:Jir.Ast.call option ->
  guard -> bool

val describe_state : t -> state -> cls:string -> string
(** Report text for reaching a state: its message template with
    [{class}]/[{state}] substituted, or just the state name. *)

(** {1 Transfer relations}

    A relation [r] over states: [r.(s).(s')] holds iff some abstracted
    event sequence can take the object from [s] to [s'].  Used by the
    interprocedural summary pre-analysis ({!module:Analysis.Summaries}):
    straight-line effects are functions, joins over branches make genuine
    relations, composition chains code fragments. *)

type rel = bool array array

val rel_identity : t -> rel
val rel_of_event : t -> string -> rel
(** The {!step} function of one event, lifted to a relation. *)

val rel_compose : rel -> rel -> rel
(** [rel_compose a b] is "first [a], then [b]". *)

val rel_join : rel -> rel -> rel
val rel_equal : rel -> rel -> bool
val rel_leq : rel -> rel -> bool
val rel_apply : rel -> bool array -> bool array
(** Image of a state set under the relation. *)

val rel_universal : t -> rel
(** Reflexive-transitive closure over every event of the property: the
    effect of an arbitrary unknown event sequence.  Over-approximates any
    concrete behavior; used for objects that escape the summary's view. *)

val rel_to_string : t -> rel -> string
(** Deterministic rendering ["s->s' s->s'' ..."], for tests and debug. *)

val pp : Format.formatter -> t -> unit
