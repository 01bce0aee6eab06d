(** Transaction state: the pooled per-attempt record and everything
    that inspects it.

    Layering: {!Rwset} → [Txn_state] → {!Protocol} → {!Commit_ladder}
    → {!Stm}.  The record type is concrete here because the three
    layers above are the record's implementation, merely split by
    concern; user code never sees it ([Stm.txn] is abstract). *)

(** Re-export of {!Mode.t} with its constructors — {!Mode} is the
    single authority for enumerating, printing and parsing modes. *)
type mode = Mode.t =
  | Lazy_lazy
  | Eager_lazy
  | Eager_eager
  | Serial_commit
  | Multi_version

val mode_name : mode -> string

type config = {
  mode : mode;
  cm : Contention.t;
  extend_reads : bool;
  max_attempts : int;
  abort_budget : int;
  serial_fallback : bool;
  fallback_after : int;
  backoff_sleep_after : int;
  backoff_sleep : float;
}

val get_default_config : unit -> config
val set_default_config : config -> unit

type abort_reason = Conflict | Killed | Explicit | Timed_out

exception Abort_exn of abort_reason
exception Retry_exn
exception Too_many_attempts of int
exception Not_in_transaction

(** A [retry] whose transaction read nothing can never be woken; the
    episode fails with this instead of blocking forever. *)
exception Retry_no_reads

(** A write attempted inside a read-only (snapshot) transaction.  Not
    an abort reason: the episode fails without retrying. *)
exception Read_only_violation

type locked = Locked : 'a Tvar.t -> locked

(** How a committed intent reaches the shared store: the classic
    one-txn-one-acquisition inline path, or {!Publisher}'s
    flat-combining group commit (the serial gate's winner drains every
    pending publication in one acquisition).  A protocol field so each
    mode states its publication discipline next to its locking
    discipline. *)
type publish_stage = Inline_publish | Group_commit

(** One transaction attempt.  With the per-domain pool the same record
    (and its log buffers and backoffs) is reset and reused across
    attempts; only [tdesc] is freshly allocated per attempt, because
    remote parties retain references to it and CAS its status word. *)
type t = {
  mutable rv : int;
  mutable tdesc : Txn_desc.t;
  mutable cfg : config;
  mutable proto : proto;
  rset : Rwset.Rlog.t;
  wset : Rwset.Wlog.t;
  locals : Rwset.Llog.t;
  mutable locked : locked list;
  mutable commit_locked_hooks : (unit -> unit) list;
  mutable after_commit_hooks : (unit -> unit) list;
  mutable abort_hooks : (unit -> unit) list;
  mutable durable_hooks : (int -> (unit -> unit) option) list;
  backoff : Backoff.t;
  gate_backoff : Backoff.t;
  mutable finished : bool;
  mutable ro : bool;
      (** read-only (snapshot) attempt: writes raise
          {!Read_only_violation}, chaos never aborts it *)
  mutable ro_reads : int;
      (** snapshot reads this attempt, flushed to {!Stats} at commit *)
}

(** The commit protocol as data: per-mode hot-path hooks, selected once
    at [atomically] entry ({!Protocol.select}) instead of branching on
    [cfg.mode] per operation. *)
and proto = {
  p_read : 'a. t -> 'a Tvar.t -> 'a;
  p_pre_read : 'a. t -> 'a Tvar.t -> unit;
  p_pre_write : 'a. t -> 'a Tvar.t -> unit;
  p_acquire : t -> unit;
  p_release_fail : t -> unit;
  p_release : t -> unit;
  p_stage : publish_stage;
}

val null_proto : proto
val desc : t -> Txn_desc.t
val config : t -> config
val read_version : t -> int
val check_open : t -> unit
val check_alive : t -> unit
(** {2 Deadlines} *)

(** Whether the attempt's absolute {!Clock.now_mono_ns} deadline (on
    its descriptor; 0 = none) has passed. *)
val deadline_expired : t -> bool

(** Raise [Abort_exn Timed_out] if the deadline passed — unless the
    attempt is irrevocable (nothing may abort it mid-flight; the
    episode only times out between attempts). *)
val check_deadline : t -> unit

val on_commit_locked : t -> (unit -> unit) -> unit
val after_commit : t -> (unit -> unit) -> unit
val on_abort : t -> (unit -> unit) -> unit

(** Register a durability handler: runs in the commit locked phase with
    the commit version (its LSN); a returned thunk is the flush wait,
    run by the ladder after locks, gates and [after_commit] handlers.
    See {!Stm.on_commit_durable}. *)
val on_commit_durable : t -> (int -> (unit -> unit) option) -> unit

(** {2 Observability taps} — one gate load per disabled site. *)

val reason_name : abort_reason -> string
val obs_attempt_start : t -> n:int -> unit
val obs_commit : t -> unit
val obs_abort : t -> abort_reason -> unit
val obs_wait : txn:int -> held_by:int -> Backoff.t -> unit
val obs_validate : t -> ok:bool -> unit
val obs_extend : t -> ok:bool -> unit
val obs_fallback : token:int -> unit

(** Consult {!Fault} at an injection point on behalf of the txn. *)
val chaos_point : t -> Fault.point -> unit

(** {2 Snapshot sampling} *)

(** The Serial_commit global commit lock (0 = free, else holder's
    descriptor id).  Owned here because snapshot sampling seqlocks
    against it; acquire/release live in {!Protocol}. *)
val commit_gate : int Atomic.t

(** Set by a lingering combiner while it holds the gate with every
    taken tick fully published: snapshot sampling may proceed during
    such stretches (see the soundness note in the implementation).
    Must be false whenever a publication is in flight under the gate;
    inline holders never set it. *)
val gate_quiescent : bool Atomic.t

(** A clock sample valid as a snapshot: seqlocked against
    [commit_gate] when [serial]. *)
val snapshot_clock : serial:bool -> int

val release_locks : t -> unit

(** The read log as (tvar, recorded-version) watch pairs, snapshotted
    before the logs are torn down so the ladder can register them on
    wait lists (see {!Parking}) after aborting a [retry]. *)
val read_watch_entries : t -> (Rwset.packed_tvar * int) list

(** {2 Leak auditing} *)

exception Lock_leak of string

val set_leak_audit : bool -> unit
val leak_audit_enabled : unit -> bool
val register_leak_check : (owner:int -> string option) -> unit

(** Post-attempt invariant check (externally visible resources). *)
val audit_txn : t -> unit

val maybe_audit : t -> unit

(** Pool-bleed check: the record must be indistinguishable from fresh
    (empty logs, no locked list, no stale hooks, attempt ended). *)
val audit_pool_residue : t -> unit

(** {2 The watchdog registry}

    Supervisor-visible mirror of each domain's pooled attempt: the
    watchdog scanner cannot walk remote DLS, so armed attempt hand-out
    stamps the domain's watch slot with the live descriptor and a
    monotonic start time.  Only root-episode (pooled) attempts are
    published; nested fresh records run inside a watched root. *)

type watch_slot = {
  ws_dom : int;  (** owning domain id (diagnostics) *)
  ws_desc : Txn_desc.t option Atomic.t;  (** live attempt, if any *)
  ws_start_ns : int Atomic.t;  (** {!Clock.now_mono_ns} at hand-out *)
}

(** Arm/disarm watch-slot stamping (disarmed cost: one atomic load per
    attempt). *)
val set_watchdog : bool -> unit

val watchdog_enabled : unit -> bool

(** All registered slots (one per domain that ran a transaction). *)
val watch_list : unit -> watch_slot list

(** {2 The per-domain descriptor pool} *)

(** One root call; attempts within it share the pooled record.  Nested
    episodes (hooks starting new roots) get fresh state.  [ep_token] is
    the serial-irrevocable quiesce token the episode holds (0 = none),
    owned by {!Commit_ladder}. *)
type episode = {
  ep_txn : t option;
  ep_backoff : Backoff.t;
  mutable ep_token : int;
}

val begin_episode : config -> episode
val end_episode : unit -> unit

(** Hand out the episode's record, reset for one attempt.  Runs
    {!audit_pool_residue} first when auditing is enabled.  A negative
    [birth] takes the attempt's own snapshot.  An [ro] attempt
    registers a {!Snapshots} slot before sampling its snapshot through
    the serial-gate seqlock. *)
val attempt_txn :
  episode ->
  config ->
  proto:proto ->
  priority:int ->
  birth:int ->
  irrevocable:bool ->
  deadline_ns:int ->
  ro:bool ->
  t

(** Scrub an ended attempt so the record can be handed out again
    (deregistering an [ro] attempt's snapshot slot). *)
val retire : t -> unit

(** Times this domain's pooled record has been handed out. *)
val pool_reuses : unit -> int

(** Audit this domain's idle pooled record ({!Lock_leak} on residue);
    no-op while an episode is running. *)
val descriptor_pool_check : unit -> unit

(** The transaction an [atomically] is currently running on this
    domain, for nesting flattening. *)
val current_txn : t option Domain.DLS.key
