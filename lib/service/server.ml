type address =
  | Unix_sock of string
  | Tcp of string * int

let address_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type t = {
  core : Core.t;
  listen_fd : Unix.file_descr;
  bound : address;
  stopping : bool Atomic.t;
  runner : Thread.t;
  mutable acceptor : Thread.t;
  conns : (Unix.file_descr * Thread.t) list ref;
  conns_lock : Mutex.t;
}

let ignore_sigpipe () =
  (* A client that disconnects mid-reply must not kill the process;
     with SIGPIPE ignored the write fails with EPIPE and only that
     connection is torn down. (No-op on platforms without SIGPIPE.) *)
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  with Invalid_argument _ -> ()

let bind_listener = function
  | Unix_sock path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with e -> Unix.close fd; raise e);
      (fd, Unix_sock path)
  | Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (addr, port))
       with e -> Unix.close fd; raise e);
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (host, bound_port))

(* Longest request line the server reads. A longer one gets one error
   reply and its connection is closed, so a client that never sends a
   newline cannot grow the reader's buffer without bound. *)
let max_line_bytes = 1 lsl 20

(* [input_line] with the [max_line_bytes] bound: [None] at end of input,
   [Some (Error ())] once a line outgrows the bound. *)
let read_line ic buf =
  Buffer.clear buf;
  let rec go () =
    match input_char ic with
    | '\n' -> Some (Ok (Buffer.contents buf))
    | _ when Buffer.length buf >= max_line_bytes -> Some (Error ())
    | c ->
        Buffer.add_char buf c;
        go ()
    | exception End_of_file ->
        if Buffer.length buf = 0 then None else Some (Ok (Buffer.contents buf))
  in
  go ()

(* One reader thread per connection: parse a line, submit, move on.
   Replies go through [send], serialized by the connection's write lock
   because the runner thread answers engine queries while this thread
   may still be emitting admission rejections. The reader runs to end of
   input, not to [stopping]: [wait] half-closes each connection only
   after the drain, so every request this thread admitted is answered
   before its socket closes (I6). *)
let serve_connection t fd =
  let write_lock = Mutex.create () in
  let alive = ref true in
  let send resp =
    let line = Support.Json.to_string (Protocol.response_to_json resp) ^ "\n" in
    Mutex.lock write_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock write_lock)
      (fun () ->
        if !alive then
          try
            let bytes = Bytes.of_string line in
            let len = Bytes.length bytes in
            let written = ref 0 in
            while !written < len do
              written :=
                !written + Unix.write fd bytes !written (len - !written)
            done
          with Unix.Unix_error _ | Sys_error _ -> alive := false)
  in
  let ic = Unix.in_channel_of_descr fd in
  let buf = Buffer.create 256 in
  (try
     while !alive do
       match read_line ic buf with
       | None | (exception Sys_error _) -> alive := false
       | Some (Error ()) ->
           send
             (Protocol.error ~id:(-1)
                (Printf.sprintf "request line longer than %d bytes" max_line_bytes));
           alive := false
       | Some (Ok "") -> ()
       | Some (Ok line) -> (
           match Protocol.parse_request line with
           | Error (id, msg) -> send (Protocol.error ~id msg)
           | Ok req -> Core.submit t.core req ~reply:send)
     done
   with Unix.Unix_error _ -> ());
  Mutex.lock write_lock;
  alive := false;
  Mutex.unlock write_lock;
  (try Unix.close fd with Unix.Unix_error _ -> ())

let accept_loop t =
  let continue = ref true in
  while !continue && not (Atomic.get t.stopping) do
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
    | fd, _ ->
        let thread = Thread.create (fun () -> serve_connection t fd) () in
        Mutex.lock t.conns_lock;
        t.conns := (fd, thread) :: !(t.conns);
        Mutex.unlock t.conns_lock
  done

let start ~core ~address () =
  ignore_sigpipe ();
  let listen_fd, bound = bind_listener address in
  Unix.listen listen_fd 64;
  let stopping = Atomic.make false in
  let t =
    {
      core;
      listen_fd;
      bound;
      stopping;
      runner =
        Thread.create
          (fun () ->
            Core.run_loop core ~should_stop:(fun () -> Atomic.get stopping))
          ();
      acceptor = Thread.self () (* replaced below, before [start] returns *);
      conns = ref [];
      conns_lock = Mutex.create ();
    }
  in
  t.acceptor <- Thread.create (fun () -> accept_loop t) ();
  t

let bound_address t = t.bound

(* A thread blocked in [accept] is not woken by another thread closing
   the fd; the portable wake-up is a throwaway self-connection — the
   acceptor returns, sees [stopping], and exits. *)
let poke_listener t =
  try
    let fd =
      match t.bound with
      | Unix_sock path ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          fd
      | Tcp (_, port) ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
          fd
    in
    Unix.close fd
  with Unix.Unix_error _ -> ()

let wait t =
  (* The runner exits when [stop] was called or a shutdown request was
     processed; tear the sockets down only afterwards so clients get EOF
     only after their admitted requests were answered. *)
  Thread.join t.runner;
  Atomic.set t.stopping true;
  Core.drain_shutdown t.core;
  poke_listener t;
  Thread.join t.acceptor;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* No new connections can appear now: snapshot after the acceptor is
     gone. A reader blocked in a partial line wakes on the half-close. *)
  Mutex.lock t.conns_lock;
  let conns = !(t.conns) in
  Mutex.unlock t.conns_lock;
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun (_, thread) -> Thread.join thread) conns;
  (match t.bound with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ())

let request_stop t = Atomic.set t.stopping true

let stop t =
  Atomic.set t.stopping true;
  wait t
