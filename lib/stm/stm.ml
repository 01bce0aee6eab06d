(* The public STM face.  The implementation lives in the layered
   modules beneath it —

     Rwset         log-structured read/write/local sets
     Txn_state     the pooled attempt record, audit, obs, chaos
     Protocol      the four conflict-detection modes as data
     Commit_ladder commit/abort + the one escalation ladder

   — and this façade re-exports the stable [Stm] API on top: the
   read/write hot paths (write-log filter probe, then the protocol's
   slow path), [or_else] by log watermarks, transaction-locals over the
   local log, and the one root call (with nesting flattening) behind
   every entry point. *)

(* The mode authority, re-exported: [Stm.Mode.all] is the one list
   tests and benches enumerate, [Stm.Mode.of_string] the one parser. *)
module Mode = Mode

type mode = Mode.t =
  | Lazy_lazy
  | Eager_lazy
  | Eager_eager
  | Serial_commit
  | Multi_version

let mode_name = Txn_state.mode_name

type config = Txn_state.config = {
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

let set_default_config = Txn_state.set_default_config
let get_default_config = Txn_state.get_default_config

type txn = Txn_state.t

exception Too_many_attempts = Txn_state.Too_many_attempts
exception Not_in_transaction = Txn_state.Not_in_transaction
exception Retry_no_reads = Txn_state.Retry_no_reads
exception Read_only_violation = Txn_state.Read_only_violation
exception Lock_leak = Txn_state.Lock_leak

let desc = Txn_state.desc
let config = Txn_state.config
let read_version = Txn_state.read_version
let on_commit_locked = Txn_state.on_commit_locked
let after_commit = Txn_state.after_commit
let on_commit_durable = Txn_state.on_commit_durable
let on_abort = Txn_state.on_abort
let chaos_point = Txn_state.chaos_point
let set_leak_audit = Txn_state.set_leak_audit
let leak_audit_enabled = Txn_state.leak_audit_enabled
let register_leak_check = Txn_state.register_leak_check
let descriptor_pool_check = Txn_state.descriptor_pool_check
let pool_reuses = Txn_state.pool_reuses

(* ------------------------------------------------------------------ *)
(* Read and write                                                       *)

let read : type a. txn -> a Tvar.t -> a =
 fun t tv ->
  Txn_state.check_alive t;
  (* Read-after-write: one summary-filter probe; almost every read of a
     never-written tvar falls through in two loads and a [land]. *)
  let i = Rwset.Wlog.find_idx t.Txn_state.wset tv in
  if i >= 0 then Rwset.Wlog.value t.Txn_state.wset i
  else t.Txn_state.proto.Txn_state.p_read t tv

let write : type a. txn -> a Tvar.t -> a -> unit =
 fun t tv v ->
  Txn_state.check_alive t;
  if t.Txn_state.ro then raise Txn_state.Read_only_violation;
  t.Txn_state.proto.Txn_state.p_pre_write t tv;
  Rwset.Wlog.write t.Txn_state.wset tv v;
  Txn_desc.earn t.Txn_state.tdesc 1

(* ------------------------------------------------------------------ *)
(* Retry support                                                        *)

let retry t =
  Txn_state.check_alive t;
  raise Txn_state.Retry_exn

type retry_mode = Parking.retry_mode = Park | Poll

let set_retry_mode = Parking.set_retry_mode
let retry_mode = Parking.retry_mode
let parked_waiters = Parking.live_waiters

(* ------------------------------------------------------------------ *)
(* Publication pipeline knobs                                           *)

let set_combining = Publisher.set_combining
let combining = Publisher.combining
let set_combine_linger = Publisher.set_combine_linger
let combine_linger = Publisher.combine_linger
let pending_publications = Publisher.pending_publications

(* The combine-session face the replay logs (lib/core) build their
   cross-transaction merging on: [session] identifies the combiner's
   current drain, [defer_flush] parks a merged-state writeback until
   just before the gate releases. *)
module Combine = struct
  let session = Publisher.session
  let defer_flush = Publisher.defer_flush
end

let restart t =
  Txn_state.check_alive t;
  raise (Txn_state.Abort_exn Txn_state.Explicit)

(* ------------------------------------------------------------------ *)
(* or_else                                                              *)

(* Alternatives roll back by truncation: entering a branch records the
   write/local log watermarks and raises the floors to them, so the
   branch's rewrites of its *own* writes stay in place while writes
   shadowing pre-branch entries append (see {!Rwset.Wlog}); a [retry]
   truncates back to the watermarks — O(branch), not a Hashtbl copy of
   the whole transaction.  Read-log entries from the first branch are
   deliberately kept: the composed transaction waits on the union of
   both branches' read sets, and extra entries only make validation
   stricter. *)
let or_else t f g =
  Txn_state.check_alive t;
  let w = t.Txn_state.wset and l = t.Txn_state.locals in
  let wmark = Rwset.Wlog.mark w and wfloor = Rwset.Wlog.floor w in
  let lmark = Rwset.Llog.mark l and lfloor = Rwset.Llog.floor l in
  Rwset.Wlog.set_floor w wmark;
  Rwset.Llog.set_floor l lmark;
  let saved_locked = t.Txn_state.locked in
  let saved_commit = t.Txn_state.commit_locked_hooks in
  let saved_after = t.Txn_state.after_commit_hooks in
  let saved_abort = t.Txn_state.abort_hooks in
  let saved_durable = t.Txn_state.durable_hooks in
  match f t with
  | v ->
      Rwset.Wlog.set_floor w wfloor;
      Rwset.Llog.set_floor l lfloor;
      v
  | exception Txn_state.Retry_exn ->
      (* Roll back the first branch's buffered effects.  Locks taken by
         the branch (eager modes) are released; locks predating the
         branch are kept. *)
      let new_locks =
        List.filter
          (fun lk -> not (List.memq lk saved_locked))
          t.Txn_state.locked
      in
      List.iter
        (fun (Txn_state.Locked tv) -> Tvar.unlock tv t.Txn_state.tdesc)
        new_locks;
      t.Txn_state.locked <- saved_locked;
      Rwset.Wlog.truncate w wmark;
      Rwset.Wlog.set_floor w wfloor;
      Rwset.Llog.truncate l lmark;
      Rwset.Llog.set_floor l lfloor;
      t.Txn_state.commit_locked_hooks <- saved_commit;
      t.Txn_state.after_commit_hooks <- saved_after;
      t.Txn_state.abort_hooks <- saved_abort;
      t.Txn_state.durable_hooks <- saved_durable;
      g t
  (* Any other exception abandons the attempt entirely (the ladder
     aborts and retires the record, which resets the floors), so no
     restoration is needed here. *)

let rec or_else_list t = function
  | [] -> retry t
  | [ f ] -> f t
  | f :: rest -> or_else t f (fun t -> or_else_list t rest)

let guard t cond = if not cond then retry t

(* ------------------------------------------------------------------ *)
(* Transaction-local storage                                            *)

module Local = struct
  type 'a key = {
    kuid : int;
    inject : 'a -> exn;
    project : exn -> 'a option;
    init : txn -> 'a;
  }

  let next_kuid = Atomic.make 1

  let key (type s) (init : txn -> s) : s key =
    let exception E of s in
    {
      kuid = Atomic.fetch_and_add next_kuid 1;
      inject = (fun x -> E x);
      project = (function E x -> Some x | _ -> None);
      init;
    }

  let find t k =
    Txn_state.check_open t;
    match Rwset.Llog.find t.Txn_state.locals k.kuid with
    | None -> None
    | Some e -> k.project e

  let set t k v =
    Txn_state.check_open t;
    Rwset.Llog.set t.Txn_state.locals k.kuid (k.inject v)

  let get t k =
    match find t k with
    | Some v -> v
    | None ->
        let v = k.init t in
        set t k v;
        v
end

(* ------------------------------------------------------------------ *)
(* The atomic-block entries                                             *)

let in_transaction () =
  match Domain.DLS.get Txn_state.current_txn with
  | Some t -> not t.Txn_state.finished
  | None -> false

(* A read-only scope nested in a running transaction joins it but holds
   its [ro] flag up for the duration, so writes anywhere under the
   scope raise [Read_only_violation] even when the enclosing
   transaction could write. *)
let join_read_only outer f =
  let saved = outer.Txn_state.ro in
  outer.Txn_state.ro <- true;
  Fun.protect
    ~finally:(fun () -> outer.Txn_state.ro <- saved)
    (fun () -> f outer)

(* The one root call behind [atomically], [read_only] and [atomic].
   Nesting is flattened: a domain-local slot tracks the transaction
   running on this domain, and a nested call joins it, so the nested
   body's effects commit or abort with the outer transaction — the
   composition semantics Proustian objects assume.  Otherwise the call
   starts a root episode on the ladder (the snapshot rung when
   [ro]). *)
let run cfg ~ro ~deadline_ns ~attempt_budget f =
  match Domain.DLS.get Txn_state.current_txn with
  | Some outer when not outer.Txn_state.finished ->
      if ro then join_read_only outer f else f outer
  | _ -> Commit_ladder.run cfg ~ro ~deadline_ns ~attempt_budget f

let atomically ?config:(cfg = get_default_config ()) f =
  run cfg ~ro:false ~deadline_ns:0 ~attempt_budget:0 f

let read_only ?config:(cfg = get_default_config ()) f =
  run cfg ~ro:true ~deadline_ns:0 ~attempt_budget:0 f

(* ------------------------------------------------------------------ *)
(* The QoS entry: outcomes instead of open-ended retry                  *)

module Outcome = struct
  type 'a t = Committed of 'a | Timed_out | Budget_exhausted | Shed

  let to_option = function Committed v -> Some v | _ -> None

  let name = function
    | Committed _ -> "committed"
    | Timed_out -> "timed-out"
    | Budget_exhausted -> "budget-exhausted"
    | Shed -> "shed"
end

let deadline t =
  let d = (Txn_state.desc t).Txn_desc.deadline_ns in
  if d = 0 then None else Some (float_of_int d *. 1e-9)

(* Episode-level QoS counters are recorded here, once per episode —
   the ladder only counts the per-attempt events.  Admission applies to
   root calls only: a nested call runs under the enclosing episode's
   QoS envelope (deadline, budget, admission). *)
let atomic ?config:(cfg = get_default_config ()) ?deadline ?max_attempts
    ?(read_only = false) f =
  if not (in_transaction () || Qos.Shedder.admit ()) then begin
    Stats.record_shed ();
    Outcome.Shed
  end
  else
    let deadline_ns =
      match deadline with None -> 0 | Some d -> int_of_float (d *. 1e9)
    in
    let attempt_budget = Option.value max_attempts ~default:0 in
    match run cfg ~ro:read_only ~deadline_ns ~attempt_budget f with
    | v -> Outcome.Committed v
    | exception Commit_ladder.Deadline_exceeded ->
        Stats.record_timeout ();
        Outcome.Timed_out
    | exception Commit_ladder.Out_of_budget ->
        Stats.record_budget_exhausted ();
        Outcome.Budget_exhausted

module Ref = struct
  type 'a t = 'a Tvar.t

  let make = Tvar.make
  let get = read
  let set = write
  let modify t r f = write t r (f (read t r))
end
