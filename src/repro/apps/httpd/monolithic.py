"""Vanilla httpd: the unpartitioned Apache/OpenSSL baseline.

Everything — ClientHello parsing, RSA private-key operations, session-key
derivation, record crypto, request handling — runs in one fully
privileged compartment, and the private key sits in that compartment's
ordinary heap.  An exploit anywhere (the hello parser here) "could cause
anything in the process's memory, including passwords and e-mails, to be
leaked" (paper section 2); the security tests demonstrate exactly that by
scanning the hijacked compartment's memory for the key.

It is also the *fast* baseline: a pool-style worker (no per-request
compartment creation) gives the "Vanilla" row of Table 2.
"""

from __future__ import annotations

import zlib

from repro.apps.httpd import content
from repro.apps.httpd.common import HttpdBase
from repro.attacks.exploit import maybe_trigger_exploit
from repro.core.errors import (CompartmentDown, ProtocolError,
                               SthreadFaulted)
from repro.core.policy import PROT_RW, SecurityContext, sc_mem_add
from repro.tls.records import RT_APPDATA, KernelSocketTransport
from repro.tls.server_core import ServerHandshake
from repro.tls.session_cache import SessionCache

#: The dynamic-content handler mode: each request runs in a fresh
#: sthread whose entire privilege is one per-request tag, freed on exit.
#: Exploit payloads read it from the hook context.
CGI_DISPOSABLE = "disposable"


class MonolithicHttpd(HttpdBase):
    """The ``Vanilla`` column of Table 2.

    Two additions ride on this variant (it is the cluster's backend):

    * **dynamic content** under :data:`~repro.apps.httpd.content.CGI_PREFIX`,
      rendered in a *disposable sthread* over a request-tagged scratch
      region.  The tag is deleted when the request completes, so one
      handler can never read another request's scratch, and a faulted
      handler becomes a 500 without touching the server.
    * an optional **cache-aside client** (``cache_addr=``) against the
      kv tier, keyed on the request path with seeded TTL jitter;
      outages and sheds degrade to cache misses.
    """

    variant = "monolithic"

    def __init__(self, network, addr, *, cache_addr=None, cache_seed=0,
                 **kwargs):
        super().__init__(network, addr, **kwargs)
        self.session_cache = SessionCache()
        # the private key lives in ordinary (untagged) process memory —
        # the paper's point about monolithic designs
        key_bytes = self.private_key.to_bytes()
        self.key_buf = self.kernel.alloc_buf(len(key_bytes),
                                             init=key_bytes)
        self._cgi_salt = zlib.crc32(
            str(kwargs.get("seed", "httpd")).encode())
        self._cgi_serial = 0
        self._last_cgi = None       # previous request's scratch window
        self.cache = None
        if cache_addr is not None:
            from repro.apps.kv.client import KvCacheClient
            self.cache = KvCacheClient(self.kernel, cache_addr,
                                       seed=cache_seed)

    def handle_connection(self, conn_fd):
        transport = KernelSocketTransport(self.kernel, conn_fd)
        # like any real server, the key is *loaded from process memory*
        # when the handshake needs it — which is why a memory-disclosure
        # exploit anywhere in this compartment obtains it
        from repro.crypto.rsa import RsaPrivateKey
        key = RsaPrivateKey.from_bytes(self.key_buf.read())
        handshake = ServerHandshake(
            transport, key, self.conn_rng(),
            session_cache=self.session_cache,
            on_client_hello=lambda hello: self._parse_hello_vuln(
                hello, conn_fd))
        channel = handshake.run()
        self._serve_requests(channel, conn_fd)

    def _parse_hello_vuln(self, hello, conn_fd):
        """The simulated parser vulnerability, fully privileged here."""
        maybe_trigger_exploit(self.kernel, hello.extensions, context={
            "variant": self.variant,
            "fd": conn_fd,
            "kernel": self.kernel,
            "key_buf": self.key_buf,
        })

    def _serve_requests(self, channel, conn_fd):
        kernel = self.kernel
        # the request accumulates in a heap buffer, as in any real
        # server — visible to cb-log and to memory-disclosure exploits
        scratch = kernel.malloc(4096)
        length = 0
        while True:
            rtype, payload = channel.recv_record()
            if rtype != RT_APPDATA:
                raise ProtocolError(f"unexpected record type {rtype}")
            if length + len(payload) > 4096:
                raise ProtocolError("request too large")
            kernel.mem_write(scratch + length, payload)
            length += len(payload)
            if content.request_complete(
                    kernel.mem_read(scratch, length)):
                break
        request = kernel.mem_read(scratch, length)
        # request parsing: the second untrusted-input surface
        maybe_trigger_exploit(kernel, request, context={
            "variant": self.variant,
            "fd": conn_fd,
            "kernel": kernel,
            "key_buf": self.key_buf,
        })
        channel.send_record(RT_APPDATA, self.respond_to(request))
        kernel.free(scratch)

    # -- dynamic content and the cache-aside path --------------------------

    def respond_to(self, request_bytes):
        path = content.parse_request(request_bytes)
        self.requests_served += 1
        if not content.is_dynamic(path):
            return content.build_response(self.pages, path)
        if self.cache is not None:
            hit = self.cache.lookup(path)
            if hit is not None:
                return hit
        body = self._render_cgi(path)
        if body is None:
            return content.http_response(
                b"500 Internal Server Error",
                b"<html><body>handler failed</body></html>")
        response = content.http_response(b"200 OK", body)
        if self.cache is not None:
            self.cache.store(path, response)
        return response

    def _render_cgi(self, path):
        """Render one dynamic request; ``None`` means the handler died.

        One request, one sthread, one tag — deleted on the way out.
        """
        kernel = self.kernel
        serial = self._cgi_serial
        self._cgi_serial += 1
        tag = kernel.tag_new(name=f"httpd-cgi{serial}")
        buf = kernel.alloc_buf(content.CGI_REGION, tag=tag)
        sc = SecurityContext()
        sc_mem_add(sc, tag, PROT_RW)
        prev, self._last_cgi = self._last_cgi, {
            "addr": buf.addr, "len": content.CGI_REGION,
            "tag": f"httpd-cgi{serial}"}
        try:
            handler = self.run_compartment(
                sc, self._cgi_body,
                {"path": path, "addr": buf.addr, "prev": prev},
                name=f"cgi{serial}")
            kernel.sthread_join(handler)
            raw = buf.read()
            return bytes(raw[2:2 + int.from_bytes(raw[:2], "big")])
        except (SthreadFaulted, CompartmentDown) as exc:
            # contained: the request dies with its handler
            self.errors.append(f"cgi handler faulted: {exc}")
            return None
        finally:
            kernel.tag_delete(tag)

    def _cgi_body(self, arg):
        """Runs inside the disposable sthread: render, write, exit.

        Its page table maps exactly one tag — this request's scratch.
        The path is the untrusted input here (a real CGI parses a query
        string), so it carries the exploit hook like the other parsers.
        """
        kernel = self.kernel
        maybe_trigger_exploit(kernel, arg["path"].encode("latin-1"),
                              context={
                                  "variant": self.variant,
                                  "cgi_mode": CGI_DISPOSABLE,
                                  "kernel": kernel,
                                  "addr": arg["addr"],
                                  "prev": arg["prev"],
                                  "key_buf": self.key_buf,
                              })
        body = content.render_dynamic(arg["path"], self._cgi_salt)
        kernel.mem_write(arg["addr"],
                         len(body).to_bytes(2, "big") + body)

    def stop(self):
        if self.cache is not None:
            self.cache.close()
        super().stop()
