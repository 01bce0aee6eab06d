(* The attempt driver: commit/abort execution, the serial-irrevocable
   quiesce protocol, and the one starvation-proof escalation ladder
   that every root transaction — [Stm.atomically], [Stm.read_only] and
   [Stm.atomic] alike — runs through. *)

open Txn_state

let run_hooks = Publisher.run_hooks

let do_abort t reason =
  ignore (Txn_desc.try_abort t.tdesc);
  Stats.record_abort ();
  (match reason with
  | Conflict -> Stats.record_conflict ()
  | Killed -> Stats.record_killed_abort ()
  | Explicit -> Stats.record_explicit_abort ()
  | Timed_out ->
      (* The per-attempt abort is counted above; the episode-level
         [timeouts] counter is bumped once by [Stm.atomic] when the
         whole episode resolves to [Timed_out]. *)
      ());
  obs_abort t reason;
  (* LIFO: inverses registered after an operation run before the
     abstract-lock releases registered when the lock was acquired. *)
  let hooks = t.abort_hooks in
  t.abort_hooks <- [];
  t.finished <- true;
  match run_hooks hooks with
  | () -> release_locks t
  | exception e ->
      release_locks t;
      raise e

(* ------------------------------------------------------------------ *)
(* Serial-irrevocable quiescing                                         *)

(* [quiesce] holds the token of the transaction currently running in
   serial-irrevocable fallback mode (0 = none).  While it is set, every
   other *writing* commit aborts itself instead of proceeding, so
   nothing can invalidate the fallback transaction's reads or contend
   for its write set; [writers_in_flight] lets the fallback drain the
   writers that passed the check before the token appeared.

   Ordering argument (OCaml atomics are SC): a writer increments
   [writers_in_flight] *before* loading [quiesce]; the fallback sets
   [quiesce] *before* loading [writers_in_flight].  If the writer's
   load saw 0 then its increment precedes the fallback's load, so the
   fallback waits for it; otherwise the writer aborts. *)
let quiesce = Atomic.make 0
let writers_in_flight = Atomic.make 0
let fallback_token = Atomic.make 1

let enter_writer_commit t =
  Atomic.incr writers_in_flight;
  if Atomic.get quiesce <> 0 && not t.tdesc.Txn_desc.irrevocable then begin
    Atomic.decr writers_in_flight;
    raise (Abort_exn Conflict)
  end

let exit_writer_commit () = Atomic.decr writers_in_flight

let acquire_quiesce ~backoff =
  let token = Atomic.fetch_and_add fallback_token 1 in
  while not (Atomic.compare_and_set quiesce 0 token) do
    Stats.record_lock_wait ();
    obs_wait ~txn:0 ~held_by:(Atomic.get quiesce) backoff
  done;
  while Atomic.get writers_in_flight > 0 do
    Domain.cpu_relax ()
  done;
  token

let release_quiesce token = ignore (Atomic.compare_and_set quiesce token 0)

(* ------------------------------------------------------------------ *)
(* Commit                                                               *)

(* Wake [retry] waiters parked on tvars this commit wrote.  Runs after
   the plan is published and every lock and gate is released (a woken
   domain re-reads immediately; waking under the locks would only
   convoy it), which still satisfies the no-lost-wakeup order: publish
   strictly precedes the wait-list detach (see Parking).  The fast
   path — nobody parked anywhere — is one atomic load.

   [Commit_wake] is the broken-waker chaos point: a [Kill]/[Crash]
   draw drops the wakeup entirely (safety is untouched — the commit is
   already published — but liveness now rests on waiter deadlines),
   which is the bug class the lost-wakeup regression suite must
   catch. *)
let wake_written t =
  if Parking.have_waiters () then begin
    match Fault.check Fault.Commit_wake with
    | Some (Fault.Kill | Fault.Crash) -> ()
    | draw ->
        (match draw with
        | Some (Fault.Delay n) -> Fault.spin n
        | Some (Fault.Abort | Fault.Wedge) -> Fault.spin 64
        | _ -> ());
        Rwset.Wlog.plan_iter_tv t.wset Parking.wake_tvar
  end

(* The owner-side tail of a published commit: the wake scan, the
   after-commit hooks and the durable flush waits.  The earliest failure
   — a captured locked-phase hook failure first — re-raises once all of
   them ran. *)
let owner_tail t (d : Publisher.done_t) =
  if d.pd_wrote then wake_written t;
  (match run_hooks d.pd_after with
  | () -> ()
  | exception e -> if d.pd_failure = None then d.pd_failure <- Some e);
  (match run_hooks d.pd_waits with
  | () -> ()
  | exception e -> if d.pd_failure = None then d.pd_failure <- Some e);
  match d.pd_failure with None -> () | Some e -> raise e

let do_commit t =
  check_alive t;
  chaos_point t Fault.Pre_commit;
  let has_writes = not (Rwset.Wlog.is_empty t.wset) in
  (* Phase 0: writing commits announce themselves so a concurrent
     serial-irrevocable fallback can drain or turn them away; this must
     precede any clock tick so that once the fallback has quiesced, no
     other transaction can advance the clock.  Grouped publications
     keep [writers_in_flight] held while parked on the publication
     list — the quiesce drain waits for them, and they always make
     progress (the combiner serves them, or they elect themselves).
     Acquisition, validation, linearization and publication live in
     the publication layer (inline or flat-combining group commit, per
     [proto.p_stage]).  An explicit handler, not [Fun.protect]: the
     writer count drops on every exit with no closure per commit. *)
  if has_writes then begin
    Rwset.Wlog.build_plan t.wset;
    enter_writer_commit t
  end;
  match owner_tail t (Publisher.publish t ~has_writes) with
  | () -> if has_writes then exit_writer_commit ()
  | exception e ->
      if has_writes then exit_writer_commit ();
      raise e

(* ------------------------------------------------------------------ *)
(* The escalation ladder                                                *)

(* Starvation-proof commit:

   1. attempts [1 .. abort_budget]: plain optimistic retries;
   2. attempts (abort_budget ..]: each retry additionally boosts the
      descriptor's priority, so karma-style contention managers start
      killing our adversaries, and the first attempt's birth timestamp
      is retained so age-based managers rank us as the elder;
   3. attempts (fallback_after ..] (when [serial_fallback]): take the
      global quiesce token, drain in-flight writing commits and re-run
      irrevocably — no remote kill, contention-manager defeat or
      injected fault can abort the attempt, so it commits and
      [Too_many_attempts] is unreachable under the default config.
      Retries on this rung keep the token: an abort here can only come
      from a bounded abstract-lock timeout against a pre-quiesce
      holder, which must itself drain shortly.  The exception is
      [retry], which waits for another transaction's write — something
      the quiesce turns away — so the token goes back before parking
      and the next attempt, still past [fallback_after], takes it
      again.

   A read-only episode runs every attempt on the snapshot rung instead:
   reads go through [Protocol.read_only_proto] straight into the
   version chains at a registered snapshot (see [Txn_state.attempt_txn])
   — no read log, no validation, no locks, and, absent user exceptions
   or an armed watchdog, no aborts.  It records no read set, so its
   [retry] fails as an empty-read-set retry does. *)
let priority_boost = 1_000

(* QoS episode failures, raised between attempts (never mid-attempt —
   mid-attempt deadline hits surface as [Abort_exn Timed_out], unwind
   through the ordinary abort path, and are converted here at the next
   attempt boundary).  [Stm.atomic] translates both into outcomes. *)
exception Deadline_exceeded
exception Out_of_budget

(* Audit an ended attempt while its logs still exist, then scrub the
   record for the pool. *)
let scrub t =
  maybe_audit t;
  retire t

(* End an attempt that did not commit: run its abort hooks and release
   its locks, then scrub it — also when an abort hook raises, before
   that exception escapes the episode. *)
let abort_attempt t reason =
  Domain.DLS.set current_txn None;
  (match do_abort t reason with
  | () -> ()
  | exception e ->
      scrub t;
      raise e);
  scrub t

(* Exception firewall for non-[Abort_exn] escapes out of [do_commit]
   (a raising commit hook, or chaos surfacing as an arbitrary
   exception): release everything, scrub the record, re-raise.  An
   attempt that already linearized ([t.finished]) must not run abort
   hooks — its effects are published; only the residue is cleaned. *)
let commit_firewall t e =
  Domain.DLS.set current_txn None;
  if not t.finished then (try do_abort t Explicit with _ -> ());
  release_locks t;
  scrub t;
  raise e

let release_token ep =
  if ep.ep_token <> 0 then begin
    release_quiesce ep.ep_token;
    ep.ep_token <- 0
  end

(* One attempt, then the next rung.  Everything the episode fixes is
   passed as arguments, so no closure is allocated per episode or per
   attempt. *)
let rec attempt ep cfg proto f ~ro ~deadline_ns ~attempt_budget n ~priority
    ~birth =
  if n > cfg.max_attempts then raise (Too_many_attempts n);
  (* Attempt-boundary QoS gate: fail the episode before sinking work
     into an attempt it can no longer afford. *)
  if attempt_budget > 0 && n > attempt_budget then raise Out_of_budget;
  if deadline_ns <> 0 && Clock.now_mono_ns () >= deadline_ns then
    raise Deadline_exceeded;
  let irrevocable = cfg.serial_fallback && n > cfg.fallback_after && not ro in
  if irrevocable && ep.ep_token = 0 then begin
    let token = acquire_quiesce ~backoff:ep.ep_backoff in
    ep.ep_token <- token;
    Stats.record_fallback ();
    obs_fallback ~token
  end;
  let priority =
    if n > cfg.abort_budget && not irrevocable then priority + priority_boost
    else priority
  in
  Stats.record_start ();
  let t =
    attempt_txn ep cfg ~proto ~priority ~birth ~irrevocable ~deadline_ns ~ro
  in
  obs_attempt_start t ~n;
  Domain.DLS.set current_txn (Some t);
  match f t with
  | result -> (
      if ro then Stats.add_ro_snapshot_reads t.ro_reads;
      match do_commit t with
      | () ->
          if ro then Stats.record_ro_commit ();
          Domain.DLS.set current_txn None;
          scrub t;
          result
      | exception Abort_exn reason ->
          again ep cfg proto f ~ro ~deadline_ns ~attempt_budget n t reason
      | exception e -> commit_firewall t e)
  | exception Abort_exn reason ->
      again ep cfg proto f ~ro ~deadline_ns ~attempt_budget n t reason
  | exception Retry_exn ->
      let watch = read_watch_entries t in
      abort_attempt t Explicit;
      (* An empty read set can never be woken: fail the episode with
         the typed error, with pool hygiene restored. *)
      if watch = [] then raise Retry_no_reads;
      (* On the fallback rung, [retry] waits for another transaction's
         write, which the quiesce token would turn away: hand the token
         back before parking.  The next attempt, still past
         [fallback_after], re-enters the fallback rung and takes it
         again. *)
      release_token ep;
      Parking.await ~deadline_ns watch;
      attempt ep cfg proto f ~ro ~deadline_ns ~attempt_budget (n + 1)
        ~priority:t.tdesc.Txn_desc.priority ~birth:t.tdesc.Txn_desc.birth
  | exception e ->
      (* A user exception observed in an inconsistent (zombie) state is
         an artifact of late conflict detection, not a real error:
         abort and re-run, as ScalaSTM does (§7).  In a consistent
         state — which irrevocable and snapshot reads are by
         construction — abort and propagate. *)
      let consistent = irrevocable || Protocol.reads_valid t in
      abort_attempt t Explicit;
      if consistent then raise e;
      Backoff.once ~until_ns:deadline_ns ep.ep_backoff;
      attempt ep cfg proto f ~ro ~deadline_ns ~attempt_budget (n + 1)
        ~priority:t.tdesc.Txn_desc.priority ~birth:t.tdesc.Txn_desc.birth

(* An aborted attempt backs off and re-enters the ladder.  A snapshot
   attempt can only get here by a remote kill (armed watchdog); it is
   counted so the abort-free gate sees any protocol regression. *)
and again ep cfg proto f ~ro ~deadline_ns ~attempt_budget n t reason =
  if ro then Stats.record_ro_abort ();
  abort_attempt t reason;
  Backoff.once ~until_ns:deadline_ns ep.ep_backoff;
  attempt ep cfg proto f ~ro ~deadline_ns ~attempt_budget (n + 1)
    ~priority:t.tdesc.Txn_desc.priority ~birth:t.tdesc.Txn_desc.birth

(* Hand the quiesce token back when the episode ends, however it ends. *)
let end_root ep =
  let token = ep.ep_token in
  release_token ep;
  end_episode ();
  if token <> 0 && leak_audit_enabled () && Atomic.get quiesce = token then
    raise (Lock_leak "quiesce token survived its fallback episode")

let run cfg ~ro ~deadline_ns ~attempt_budget f =
  let proto =
    if ro then begin
      (* Snapshots need history to exist even if no read-write block
         selected Multi_version yet. *)
      Snapshots.ensure_armed ();
      Protocol.read_only_proto
    end
    else Protocol.select cfg.mode
  in
  let ep = begin_episode cfg in
  match
    attempt ep cfg proto f ~ro ~deadline_ns ~attempt_budget 1 ~priority:0
      ~birth:(-1)
  with
  | v ->
      end_root ep;
      v
  | exception e ->
      end_root ep;
      raise e
