(** Named worker threads.

    Each threading-architecture module (Section V) owns one or more worker
    threads. A worker gets a {!Thread_state.t} handle for profiling and a
    top-level exception barrier: an escaping exception is logged and
    recorded, never silently dropped.

    Workers run on one of two OCaml domains. [Core] threads run on the
    domain that spawns them (the main domain for every replica stage).
    [Front] threads run on one process-wide front domain, so the
    client-facing stages stop taking turns with the Protocol and
    executors on one runtime lock (DESIGN.md, "Domains: front and
    core"). A [Front] spawn while no front domain runs starts one
    20 ms later, and [Front] workers spawned before then wait for it;
    the domain ends when its last worker does. When
    [Domain.recommended_domain_count ()] is 1 no domain is started and
    [Front] means [Core]. *)

type t

type placement = Core | Front

val spawn : ?on:placement -> name:string -> (Thread_state.t -> unit) -> t
(** [spawn ?on ~name body] starts a thread running [body st] where [st]
    is the thread's freshly registered accounting handle. [on] defaults
    to [Core]. A [Front] thread spawned from another domain starts
    asynchronously: if the front domain fails to create it, the
    exception is the worker's {!failure}. *)

val name : t -> string

val join : t -> unit
(** Wait for the worker to finish, whichever domain it runs on.
    Idempotent. *)

val failure : t -> exn option
(** The exception that terminated the worker, if any (after {!join}). *)

val join_all : t list -> unit
