"""The inline-CGI contrast: a test-only :class:`MonolithicHttpd`.

The shipped server renders every dynamic request in a disposable
sthread over a per-request tag.  This subclass renders it in the fully
privileged server compartment instead, on a persistent heap scratch
buffer that is never scrubbed: each request's residue survives into the
next one, and into the hands of any exploit in that compartment.  The
tests use it to show what the disposable handler prevents, and that the
handler mode changes the isolation, never the bytes served.
"""

from repro.apps.httpd import content
from repro.apps.httpd.monolithic import MonolithicHttpd
from repro.attacks.exploit import maybe_trigger_exploit

CGI_INLINE = "inline"


class InlineCgiHttpd(MonolithicHttpd):
    """:class:`MonolithicHttpd` with the CGI handler kept inline."""

    def __init__(self, network, addr, **kwargs):
        super().__init__(network, addr, **kwargs)
        self._cgi_scratch = None    # the persistent render buffer

    def _render_cgi(self, path):
        """Render on a persistent heap buffer, leaving residue."""
        kernel = self.kernel
        if self._cgi_scratch is None:
            self._cgi_scratch = kernel.alloc_buf(content.CGI_REGION)
        maybe_trigger_exploit(kernel, path.encode("latin-1"), context={
            "variant": self.variant,
            "cgi_mode": CGI_INLINE,
            "kernel": kernel,
            "addr": self._cgi_scratch.addr,
            "prev": self._last_cgi,
            "key_buf": self.key_buf,
        })
        body = content.render_dynamic(path, self._cgi_salt)
        kernel.mem_write(self._cgi_scratch.addr,
                         len(body).to_bytes(2, "big") + body)
        self._last_cgi = {"addr": self._cgi_scratch.addr,
                          "len": content.CGI_REGION,
                          "tag": "heap"}
        return body
